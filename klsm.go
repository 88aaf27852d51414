package klsm

import (
	"sync"
	"sync/atomic"
	"time"

	"klsm/internal/core"
)

// Queue is a lock-free relaxed concurrent priority queue over uint64 keys
// with payloads of type V. Create one with New. Two access styles exist:
// explicit per-goroutine Handles (the fast path — see NewHandle) and the
// handle-free queue-level operations (Queue.Insert, Queue.TryDeleteMin,
// Queue.PeekMin and the batch variants), which borrow handles from an
// internal registry. For ordered key types other than uint64, wrap the
// queue via NewOrdered.
type Queue[V any] struct {
	q *core.Queue[V]

	// p is the durability state; nil for queues created by New. Non-nil
	// routes every mutation through the write-ahead log (see Open).
	p *persister[V]
	// closed flips on Close; operations afterwards return or panic with
	// ErrClosed.
	closed atomic.Bool

	// registry backs the handle-free operations: the copy-on-write list
	// of every handle it ever created, each borrowed by at most one
	// in-flight queue-level operation at a time (Handle.lent). Recycling
	// keeps T — and ρ = T·k — bounded by the peak concurrency of
	// handle-free ops rather than goroutine churn. regMu serializes
	// registration. hint caches, per P, the handle that P returned last;
	// the list, not the cache, owns the handles, so an entry the GC drops
	// costs one scan and never a handle.
	regMu    sync.Mutex
	registry atomic.Pointer[[]*Handle[V]]
	hint     sync.Pool
}

// Handle is one goroutine's access point to a Queue. A Handle must not be
// used by two goroutines concurrently; create one Handle per worker.
type Handle[V any] struct {
	h *core.Handle[V]
	// q backs the closed check and the persistence routing.
	q *Queue[V]
	// enc is the ordered-API batch-encode scratch. Owner-only, like the
	// handle itself — registry borrowers own it exclusively while borrowed.
	enc []uint64
	// vbuf is the value-codec scratch of the persistent insert path.
	// Owner-only, like enc.
	vbuf []byte
	// lent marks a registry handle borrowed by a handle-free operation.
	// The borrower's CompareAndSwap and the returner's Store order one
	// borrower's operations before the next one's.
	lent atomic.Bool
}

// persist performs the per-operation preamble: it panics with ErrClosed on
// a closed queue and returns the durability state (nil for queues created
// by New). One atomic load on the hot path.
func (h *Handle[V]) persist() *persister[V] {
	q := h.q
	if q == nil {
		return nil
	}
	if q.closed.Load() {
		panic(ErrClosed)
	}
	return q.p
}

// DropFunc is the lazy-deletion callback (paper §4.5): return true for items
// that have become irrelevant (for example, stale distance labels in SSSP)
// and the queue discards them during its next maintenance pass over them
// instead of returning them from TryDeleteMin.
type DropFunc[V any] func(key uint64, value V) bool

// Ref names one inserted item for Queue.Delete: the item and its version
// from before the insert published it, two words with no allocation. It
// names that incarnation only, so it goes stale once the item is removed by
// any path, and never names the item's next use. The zero Ref names
// nothing. Obtain one from InsertRef.
type Ref[V any] struct{ r core.Ref[V] }

// resolveOptions applies opts to the defaults: the paper's recommended
// general-purpose setting (combined k-LSM, k = 256, local ordering) and —
// for persistent queues — 2ms timer-driven group commit.
func resolveOptions(opts []Option) options {
	cfg := options{
		k:             256,
		mode:          core.Combined,
		localOrdering: true,
		syncInterval:  2 * time.Millisecond,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.syncInterval < 0 { // WithSyncInterval(0): explicitly timerless
		cfg.syncInterval = 0
	}
	return cfg
}

// coreConfig translates resolved options into the engine configuration.
func coreConfig[V any](cfg options) core.Config[V] {
	return core.Config[V]{K: cfg.k, Mode: cfg.mode, LocalOrdering: cfg.localOrdering}
}

// newCoreQueue builds the engine queue for resolved options, wiring the
// optional lazy-deletion callback.
func newCoreQueue[V any](cfg options, drop func(key uint64, value V) bool) *core.Queue[V] {
	ccfg := coreConfig[V](cfg)
	ccfg.Drop = drop
	return core.NewQueue(ccfg)
}

// New returns an empty queue configured by opts. The default configuration
// is the paper's recommended general-purpose setting: the combined k-LSM
// with k = 256 and local ordering enabled. Every queue recycles its memory
// through §4.4 pooling with deterministic item reclamation, and caches
// delete-min candidates. For a durable queue use Open — New panics if WithPersistence is
// among opts, because persistence needs a ValueCodec that cannot travel
// through the non-generic Option type.
func New[V any](opts ...Option) *Queue[V] {
	cfg := resolveOptions(opts)
	if cfg.persistDir != "" {
		panic("klsm: WithPersistence requires klsm.Open (New cannot take the value codec)")
	}
	return &Queue[V]{q: newCoreQueue[V](cfg, nil)}
}

// NewWithDrop is New with a lazy-deletion callback; the callback type is
// generic, so it cannot be passed through Option.
func NewWithDrop[V any](drop DropFunc[V], opts ...Option) *Queue[V] {
	cfg := resolveOptions(opts)
	if cfg.persistDir != "" {
		panic("klsm: WithPersistence requires klsm.Open (New cannot take the value codec)")
	}
	return &Queue[V]{q: newCoreQueue[V](cfg, drop)}
}

// NewHandle registers a new handle. Handles count toward the relaxation
// bound: with T handles, TryDeleteMin returns one of the T·k+1 smallest
// keys.
func (q *Queue[V]) NewHandle() *Handle[V] {
	if q.closed.Load() {
		panic(ErrClosed)
	}
	return &Handle[V]{h: q.q.NewHandle(), q: q}
}

// Size returns the number of keys in the queue. Like the paper's size
// operation it is approximate: the result may deviate from the exact count
// by up to the relaxation bound ρ = T·k while operations are in flight.
func (q *Queue[V]) Size() int { return q.q.Size() }

// K returns the current relaxation parameter.
func (q *Queue[V]) K() int { return q.q.K() }

// MaxRelaxation is the largest accepted relaxation parameter: larger k is
// clamped to it by New and SetRelaxation (beyond this bound the per-handle
// structure saturates anyway, and unbounded k would let ρ = T·k arithmetic
// overflow). Negative k panics in both.
const MaxRelaxation = core.MaxRelaxation

// SetRelaxation reconfigures k at run time (paper §1). The change takes
// effect promptly but not atomically: the shared structure adopts the new
// bound on its next update, and each handle applies it on its next insert.
// During the transition the effective per-handle bound is the larger of the
// old and new k. No-op for queues created WithDistributedOnly.
//
// Validation matches New: k < 0 panics (also on WithDistributedOnly queues,
// where the value is otherwise ignored), and k > MaxRelaxation is clamped.
func (q *Queue[V]) SetRelaxation(k int) { q.q.SetRelaxation(k) }

// Rho returns the current worst-case relaxation bound T·k, where T is the
// number of handles created so far.
func (q *Queue[V]) Rho() int { return q.q.Rho() }

// Footprint returns the number of physical item slots the queue's published
// blocks currently hold: live items plus logically deleted or filter-dropped
// ones that no compaction pass has reclaimed yet. It is a racy diagnostic
// snapshot intended for observing memory pressure — under a merge filter,
// Size cannot serve that purpose because merge-time drops are invisible to
// its insert/delete counters. Footprint bounded across time is the signal
// that lazy deletion is keeping up (see Compact).
func (q *Queue[V]) Footprint() int { return q.q.FootprintItems() }

// Compact physically reclaims logically deleted and filter-dropped items:
// every idle registry handle's local structure and the shared k-LSM are
// purged block-by-block (dropped items' references released exactly once
// through the §4.4 ledger) and re-consolidated. Ordinary merges apply the
// filter only when blocks collide at a level, so without occasional
// compaction a long-lived high-level block can hold filter-positive
// garbage indefinitely; call Compact when Footprint degrades relative to
// Size — or use timerq, which automates exactly that heuristic for
// timers. Safe to call concurrently with other operations. Explicit
// Handles are owner-only and are not swept — their owners call
// Handle.Compact themselves.
func (q *Queue[V]) Compact() {
	if q.closed.Load() {
		panic(ErrClosed)
	}
	// Sweep every registry handle, since each Compact purges only its own
	// handle's local structure (plus the shared k-LSM): sweeping a single
	// handle would strand filter-dropped items in the others' local
	// structures indefinitely. Claiming one handle at a time leaves the
	// rest free for concurrent handle-free operations, which borrow them
	// instead of registering new handles; a handle another operation holds
	// is skipped until the next Compact.
	swept := false
	if hs := q.registry.Load(); hs != nil {
		for _, h := range *hs {
			if h.lent.CompareAndSwap(false, true) {
				q.compactLent(h)
				swept = true
			}
		}
	}
	if !swept {
		q.compactLent(q.borrowHandle())
	}
}

// compactLent compacts a borrowed registry handle and returns it, via
// defer like every handle-free operation.
func (q *Queue[V]) compactLent(h *Handle[V]) {
	defer q.returnHandle(h)
	h.Compact()
}

// Quiesce drives every deferred §4.4 reclamation step to completion:
// DistLSM consolidation, shared-structure maintenance, and the epoch-gated
// limbo drains, including obligations handed over by closed handles. After Quiesce on a fully drained queue, every recyclable block
// and item has returned to a free list. It must not run concurrently with
// any handle operation; call it at shutdown or between test phases.
func (q *Queue[V]) Quiesce() { q.q.Quiesce() }

// Meld absorbs all items of other into q through handle h. Exactly-once
// deletion holds throughout, but the operation is not linearizable (see
// paper §4.5): concurrent observers may see intermediate states. other must
// be quiescent for inserts during the meld and should be discarded
// afterwards.
//
// Meld panics when either queue is persistent: melded items move by block
// adoption and would bypass the write-ahead log, silently losing them on
// recovery. Drain the source and re-insert instead.
func (h *Handle[V]) Meld(other *Queue[V]) {
	if other == nil {
		return
	}
	if h.persist() != nil || other.p != nil {
		panic("klsm: Meld on a persistent queue would bypass the WAL; drain and re-insert instead")
	}
	if other.closed.Load() {
		panic(ErrClosed)
	}
	h.h.Meld(other.q)
}

// Close retires the handle: locally batched items move to the shared
// structure (staying reachable without it) and the handle stops counting
// toward ρ = T·k. Call it when a worker goroutine exits for good; the
// handle must not be used afterwards. Closing is optional for short-lived
// queues but prevents unbounded victim-list growth under handle churn.
func (h *Handle[V]) Close() {
	h.persist()
	h.h.Close()
}

// Insert adds key with the given payload. Insert always succeeds and is
// lock-free; on a persistent queue it additionally appends a WAL record
// (in memory — disk I/O happens on the group-commit writer), is durable
// once a Sync covering it returns, and panics if the ValueCodec rejects
// value. Insert panics with ErrClosed after Close.
func (h *Handle[V]) Insert(key uint64, value V) {
	if p := h.persist(); p != nil {
		seq := p.seq.Add(1)
		h.vbuf = p.appendInsert(h.vbuf[:0], key, value, seq)
		h.h.InsertSeq(key, value, seq)
		return
	}
	h.h.Insert(key, value)
}

// InsertRef is Insert returning a Ref to the inserted item, for a later
// Queue.Delete of exactly this insert. InsertRef panics on a persistent
// queue, because Delete would leave the WAL no delete record.
func (h *Handle[V]) InsertRef(key uint64, value V) Ref[V] {
	if h.persist() != nil {
		panic("klsm: InsertRef on a persistent queue would bypass the WAL")
	}
	return Ref[V]{h.h.InsertRef(key, value)}
}

// Delete removes the item r names, reporting whether this call removed it:
// false if it already left the queue, by a pop or an earlier Delete, or if
// r is the zero Ref. Delete is one compare-and-swap on the item's versioned
// deletion flag (paper §4.4), lock-free and handle-free; the item then
// counts as deleted in Size, and later merges, shrinks and Compact reclaim
// its slot as they reclaim popped ones. r must come from q. Delete panics
// on a persistent queue, like InsertRef.
func (q *Queue[V]) Delete(r Ref[V]) bool {
	if q.closed.Load() {
		panic(ErrClosed)
	}
	if q.p != nil {
		panic("klsm: Delete on a persistent queue would bypass the WAL")
	}
	return q.q.Delete(r.r)
}

// TryDeleteMin removes and returns a key among the ρ+1 smallest in the
// queue (ρ = T·k), preferring this handle's own minimal key (local
// ordering). ok is false when no key was found; under concurrent
// modification this can be spurious, so callers with external knowledge
// that items remain should retry. On a persistent queue a successful
// delete appends a WAL record; once a Sync covering it returns, the item
// will not reappear after a crash (unacknowledged deletes may be
// redelivered — at-least-once, like any write-behind log).
func (h *Handle[V]) TryDeleteMin() (key uint64, value V, ok bool) {
	p := h.persist()
	key, value, seq, ok := h.h.TryDeleteMinSeq()
	if ok && p != nil {
		p.appendDelete(key, seq)
	}
	return key, value, ok
}

// PeekMin returns a key TryDeleteMin could return, without removing it. The
// result is relaxed exactly like TryDeleteMin's and may be stale by the
// time the caller acts on it. PeekMin observes the same buffered candidate
// the next TryDeleteMin on this handle would pop.
func (h *Handle[V]) PeekMin() (key uint64, value V, ok bool) {
	h.persist()
	return h.h.PeekMin()
}

// TryDeleteMinBounded is TryDeleteMin restricted to keys at or below bound:
// it removes and returns a relaxed-minimal key only when that key is <=
// bound, leaving everything above the bound untouched. A false result is a
// stronger signal than TryDeleteMin's emptiness — before concluding
// dryness, the queue runs a due-bounded spy pass that pulls in qualifying
// keys stranded in idle handles' local structures, so false means no
// reachable key <= bound existed at that moment. This is the deadline
// primitive ("pop the next item due by now"); timerq builds on it. On a
// persistent queue a successful delete logs its WAL record like
// TryDeleteMin.
func (h *Handle[V]) TryDeleteMinBounded(bound uint64) (key uint64, value V, ok bool) {
	p := h.persist()
	key, value, seq, ok := h.h.TryDeleteMinBoundedSeq(bound)
	if ok && p != nil {
		p.appendDelete(key, seq)
	}
	return key, value, ok
}

// Compact physically reclaims logically deleted and merge-filter-dropped
// items from this handle's local structure and the shared k-LSM; see
// Queue.Compact for when that matters. Owner-only like every handle
// operation.
func (h *Handle[V]) Compact() {
	h.persist()
	h.h.Compact()
}
