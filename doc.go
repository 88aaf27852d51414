// Package klsm provides a lock-free, relaxed concurrent priority queue based
// on log-structured merge-trees, implementing "The Lock-free k-LSM Relaxed
// Priority Queue" (Wimmer, Gruber, Träff, Tsigas; PPoPP 2015,
// arXiv:1503.05698).
//
// # Semantics
//
// The queue stores uint64 keys (smaller = higher priority) with an arbitrary
// payload. DeleteMin is relaxed: with T active handles and relaxation
// parameter k, it returns one of the T·k+1 smallest keys — a fixed,
// runtime-configurable worst-case bound, unlike heuristic relaxed queues.
// Two properties sharpen this:
//
//   - Local ordering: keys inserted and deleted by the same handle behave
//     exactly like a strict priority queue; a handle never skips its own keys.
//   - With k = 0 and a single handle, the queue is an exact priority queue.
//
// All operations are lock-free: a stalled goroutine cannot block others.
//
// # Handles
//
// Every goroutine using the queue needs its own Handle (the paper's
// "thread"); handles hold the thread-local batching structures, so they must
// not be shared between concurrently running goroutines:
//
//	q := klsm.New[string]()
//	h := q.NewHandle()
//	h.Insert(42, "answer")
//	key, val, ok := h.TryDeleteMin()
//
// TryDeleteMin may fail spuriously under concurrent modification; callers
// that know items remain (for example via application-level in-flight
// counting) simply retry.
//
// # v2 surface: ordered keys, handle-free operations, batches
//
// Three layers extend the raw engine shape (all composable, none mandatory):
//
//   - Ordered keys. NewOrdered wraps a queue in an order-preserving KeyCodec
//     so callers stop hand-packing priorities into uint64: built-in codecs
//     cover uint64, int64, float64 (IEEE totalOrder: NaNs at the extremes,
//     -0 < +0), time.Time, and string prefixes; custom codecs plug in by
//     implementing the two-method interface (CheckKeyCodec self-checks the
//     order contract). The engine never sees K — every guarantee carries
//     over verbatim to the codec's order.
//   - Handle-free operations. Queue.Insert, Queue.TryDeleteMin,
//     Queue.PeekMin and the batch variants borrow a registered handle from
//     an internal registry per call: no setup, safe from any goroutine, and
//     ρ = T·k stays bounded by the peak concurrency of handle-free calls
//     rather than goroutine churn. Explicit handles remain the fast path.
//   - Batch operations. Handle.InsertBatch sorts a batch once and publishes
//     it as a single block at level ⌈log₂n⌉ — one merge cascade instead of n
//     (the LSM's internal batching of §4.1, surfaced); Handle.DrainMin pops
//     up to n items per call through the persistent candidate window. Both
//     preserve the relaxation bound for every batch size.
//
// # Choosing k
//
// k trades ordering quality for scalability. k = 0 is strict but serializes
// on the shared structure; the paper's evaluation finds k = 256 a good
// general-purpose setting and uses k up to 4096 for maximum throughput.
// See the benchmarks in bench_test.go, which regenerate the paper's figures.
//
// # Memory pooling and item reclamation (§4.4)
//
// The queue recycles its internal blocks and item wrappers through
// per-handle free lists, the Go translation of the paper's §4.4
// memory-management scheme: items carry versioned deletion flags (so reuse
// is ABA-safe), private blocks recycle the moment a merge retires them, and
// published blocks are reclaimed once the epochs that readers announce
// prove no reading thread can still hold a pointer. On top of that, items
// are reference-counted at block-lineage granularity: a reference is acquired
// once when an item enters the structure, transferred — not re-acquired —
// through every local merge, and released once when its lineage dies; when
// the last reference on a deleted item drops, the item returns to a
// per-handle free list and is reused by a later insert — deterministic
// reclamation instead of waiting for the garbage collector. Steady-state
// Insert/TryDeleteMin run nearly allocation-free (see
// TestPooledAllocationBudget). The scheme is how the queue works, not an
// option: EXPERIMENTS.md E9–E12 record the measurements that settled it.
//
// # Delete-min fast path
//
// On top of the pooling layer, each handle caches the minima of its local
// batching structure per block and its shared-structure candidate window
// across TryDeleteMin calls. The window is maintained incrementally — a
// shared-structure change re-materializes only the candidates it added,
// not the whole O(k) set — and feeds a small per-handle deletion buffer:
// candidates from both structures are staged locally and the common delete
// is a buffer pop whose only shared-state touches are one pointer check and
// the claiming CAS. A sticky skip-shared hint lets runs of deletes whose
// minimum is handle-local skip the shared structure entirely, re-validated
// against each newly published array's minimum-key floor. In the steady
// state a delete-min is a handful of key compares instead of a rescan of
// both structures (see DESIGN.md). All three are pure caches over the same
// take-CAS protocol: they change which candidate a delete claims first,
// never the ρ = T·k bound, local ordering, or exactly-once deletion.
//
// # Lazy deletion: the merge filter and delete-by-reference
//
// NewWithDrop / NewOrderedWithDrop install a drop filter consulted during
// block merges: items the filter reports stale are physically discarded by
// the merge instead of ever surfacing from a delete. It suits staleness the
// application can only judge from the item, like an outdated SSSP label
// (paper §4.5). An application that knows the exact item to remove deletes
// it by reference instead: InsertRef returns a two-word Ref, and
// Queue.Delete takes the item with one version-stamped CAS, after which
// every merge, shrink and pop skips it for free; a Ref goes stale once its
// item leaves the queue, so it never removes a recycled item's next use.
// Handle.Compact force-merges both structures, reclaiming taken and
// filtered items alike, and Queue.Footprint reports physical occupancy
// (under a filter the meaningful size, since logical Size does not see
// merge-time drops). The timerq subsystem cancels by reference: a timer's
// cell holds the Ref of its current queue entry, so Cancel and Reschedule
// delete exactly that entry (see the timerq package and DESIGN.md "Timer
// subsystem").
//
// # Durability
//
// Open (and OpenOrdered) returns a persistent queue rooted at a directory:
// every insert and delete appends a CRC32C-framed record to a write-ahead
// log, and reopening the directory recovers exactly the logically live
// items. Logging is write-behind with group commit — operations append to
// an in-memory buffer and never block on disk; a background writer batches
// records to the file and fsyncs on the WithSyncInterval policy (default:
// at most 2ms after an unsynced append). The
// durability contract is explicit: an operation is guaranteed to survive a
// crash once a Sync call covering it returns nil. Acknowledged inserts are
// recovered exactly once; operations after the last acknowledgement may be
// lost (unacked inserts) or redelivered (unacked deletes) — at-least-once
// delivery, like any write-behind log.
//
// Checkpoint compacts the log without stopping the queue: it rotates the
// WAL (publishing a manifest that freezes the old file), merges the frozen
// records with the existing segments into fresh sorted segment files, and
// publishes the result with a second atomically renamed MANIFEST — safe to
// run concurrently with inserts and deletes, and crash-safe at every
// intermediate cut. WithAutoCheckpoint runs it automatically on size/age
// triggers and sweeps orphaned files. Recovery loads each segment as one
// block publication (the batch-insert path), so reopening a queue of a
// million items takes on the order of a second. Torn tails from
// a crash are detected by checksum and truncated silently; provable mid-log
// corruption is refused with ErrCorruptWAL / ErrCorruptCheckpoint — never a
// panic, never silent loss. See DESIGN.md "Durability" for the framing,
// the recovery soundness argument, and the crash-stress methodology.
package klsm
