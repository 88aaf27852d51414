package klsm

import "klsm/internal/core"

// Stats is a snapshot of the queue's structural counters, aggregated across
// all handles — the open ones and those closed so far (only Handles counts
// the open ones alone). Its fields, in order: Handles, Inserted, Deleted,
// Merges, Overflows, Spies, SpiedBlocks, SpyCalls, Consolidates,
// SharedConsolidatePushes, SharedInsertRetries, WindowBuilds,
// WindowRepairs, WindowItems, BufferFills, BufferPops, BufferFlushes,
// HintSkips and HintSticks. They expose the internals the delete-min fast
// path is tuned by — candidate-window maintenance cost, deletion-buffer hit
// rates, skip-shared stickiness — alongside the structural event counts of
// the paper's ablations. The snapshot is taken without stopping the queue,
// so counters from handles mid-operation may be one event behind.
type Stats = core.QueueStats

// Stats returns an aggregated snapshot of the queue's structural counters;
// see Stats for the fields. Safe to call concurrently with operations.
func (q *Queue[V]) Stats() Stats { return q.q.Stats() }
