package core

// QueueStats is a snapshot of the queue's structural counters: the internals
// the delete-min fast path is tuned by — candidate-window maintenance cost,
// deletion-buffer hit rates, skip-shared stickiness — alongside the
// structural event counts of the paper's ablations (DESIGN.md E6–E8). It is
// also the public klsm.Stats. The snapshot is taken without stopping the
// queue, so counters from handles mid-operation may be one event behind.
// Every counter includes the handles closed so far; only Handles counts the
// open ones alone.
type QueueStats struct {
	// Handles is the number of open handles (T in ρ = T·k).
	Handles int
	// Inserted is the lifetime number of inserted keys.
	Inserted int64
	// Deleted counts successful delete-min operations.
	Deleted int64
	// Merges counts block merges across the per-handle structures.
	Merges int64
	// Overflows counts blocks transferred from per-handle structures to the
	// shared k-LSM (the batching frequency of paper §4.3).
	Overflows int64
	// Spies counts successful spy operations (paper §4.2).
	Spies int64
	// SpiedBlocks counts blocks copied by spy operations.
	SpiedBlocks int64
	// SpyCalls counts delete-min rounds that resorted to spying.
	SpyCalls int64
	// Consolidates counts per-handle consolidation passes.
	Consolidates int64
	// SharedConsolidatePushes counts successfully published consolidations
	// of the shared k-LSM.
	SharedConsolidatePushes int64
	// SharedInsertRetries counts failed shared-insert CAS attempts (the
	// contention measure of paper §4.1).
	SharedInsertRetries int64
	// WindowBuilds counts full candidate-window materializations.
	// WindowItems/Deleted is the per-delete window cost the incremental
	// window keeps bounded at large k (the E14/E15 metric).
	WindowBuilds int64
	// WindowRepairs counts incremental candidate-window repairs.
	WindowRepairs int64
	// WindowItems counts candidate entries materialized into windows by
	// builds and repairs.
	WindowItems int64
	// BufferFills counts deletion-buffer refills.
	BufferFills int64
	// BufferPops counts deletes served straight from the deletion buffer.
	BufferPops int64
	// BufferFlushes counts deletion-buffer invalidations that discarded
	// unconsumed buffered candidates.
	BufferFlushes int64
	// HintSkips counts shared-side queries skipped on a valid skip-shared
	// hint.
	HintSkips int64
	// HintSticks counts the sticky subset of HintSkips: skips granted by
	// minimum-key re-validation across a shared publication
	// (MultiQueue-style stickiness).
	HintSticks int64
}

// ReclaimStats aggregates the §4.4 item-reclamation counters across all
// open handles. Unlike Stats, the underlying counters are owner-written
// plain fields, so ReclaimStats must only be called while no handle is
// operating (the Quiesce contract); it exists for the accounting tests and
// shutdown diagnostics.
type ReclaimStats struct {
	// ItemsReclaimed counts taken items reclaimed by slab zero crossings
	// and quiesce sweeps; ItemPuts is the same event counted at the item
	// pools. The two agree for the combined queue (every pool put is a
	// reclaim).
	ItemsReclaimed int64
	ItemPuts       int64
	// ItemReuses counts inserts served from recycled items; ItemSlabAllocs
	// counts fresh item slab allocations.
	ItemReuses     int64
	ItemSlabAllocs int64
	// ItemsLostLive counts final releases that found the item still live —
	// always zero unless reachability is broken somewhere (asserted by the
	// accounting tests).
	ItemsLostLive int64
	// LimboLeaked counts blocks dropped at a limbo cap with their item
	// references unreleased (per-handle pools plus the shared structure) —
	// the one GC fallback left in the reclamation scheme.
	LimboLeaked int64
}

// ReclaimStats returns the aggregated reclamation counters, including
// those of closed handles (accumulated at close) and the queue's reaper.
// Callers must guarantee no handle is concurrently operating; see the type
// comment.
func (q *Queue[V]) ReclaimStats() ReclaimStats {
	var rs ReclaimStats
	for _, h := range q.handlesSnapshot() {
		ps := h.pool.Stats()
		rs.ItemsReclaimed += ps.ItemsReclaimed
		rs.ItemsLostLive += ps.ItemsLostLive
		rs.LimboLeaked += ps.LimboLeaked
		rs.ItemPuts += h.items.Puts()
		a, r := h.items.Stats()
		rs.ItemSlabAllocs += a
		rs.ItemReuses += r
	}
	q.reaperMu.Lock()
	cr := q.closedReclaim
	ps := q.reaperPool.Stats()
	cr.ItemsReclaimed += ps.ItemsReclaimed
	cr.ItemsLostLive += ps.ItemsLostLive
	cr.LimboLeaked += ps.LimboLeaked
	cr.ItemPuts += q.reaperItems.Puts()
	q.reaperMu.Unlock()
	rs.ItemsReclaimed += cr.ItemsReclaimed
	rs.ItemPuts += cr.ItemPuts
	rs.ItemReuses += cr.ItemReuses
	rs.ItemSlabAllocs += cr.ItemSlabAllocs
	rs.ItemsLostLive += cr.ItemsLostLive
	rs.LimboLeaked += cr.LimboLeaked
	rs.LimboLeaked += q.shared.LimboLeaked()
	return rs
}

// Stats returns an aggregated snapshot of the queue's structural counters,
// including those of closed handles.
func (q *Queue[V]) Stats() QueueStats {
	q.mu.Lock()
	hs := append([]*Handle[V](nil), q.handles...)
	s := q.closedStats
	q.mu.Unlock()
	s.Handles = len(hs)
	for _, h := range hs {
		h.addStats(&s)
	}
	return s
}

// addStats adds h's counters to s (all but Handles). Safe to call
// concurrently with h's operations.
func (h *Handle[V]) addStats(s *QueueStats) {
	s.Inserted += h.inserted.Load()
	s.Deleted += h.deleted.Load()
	ds := h.dist.Stats()
	s.Merges += ds.Merges
	s.Overflows += ds.Overflows
	s.Spies += ds.Spies
	s.SpiedBlocks += ds.SpiedBlocks
	s.Consolidates += ds.Consolidates
	s.SpyCalls += h.SpyCalls.Load()
	s.SharedConsolidatePushes += h.cursor.ConsolidatePushes.Load()
	s.SharedInsertRetries += h.cursor.InsertRetries.Load()
	s.WindowBuilds += h.cursor.WindowBuilds.Load()
	s.WindowRepairs += h.cursor.WindowRepairs.Load()
	s.WindowItems += h.cursor.WindowItems.Load()
	s.BufferFills += h.BufFills.Load()
	s.BufferPops += h.BufPops.Load()
	s.BufferFlushes += h.BufFlushes.Load()
	s.HintSkips += h.cursor.HintSkips.Load()
	s.HintSticks += h.cursor.HintSticks.Load()
}
