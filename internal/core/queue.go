// Package core implements the combined k-LSM relaxed priority queue of
// paper §4.3 (Listing 5): one distributed LSM per handle for insertion
// batching plus a single shared k-LSM for global ordering guarantees, glued
// together by the overflow rule (a merged block reaching level ⌊log2(k+1)⌋
// moves from the handle-local DistLSM to the shared k-LSM).
//
// Guarantees (paper §5):
//
//   - insert is lock-free and linearizable; a key is reachable by every
//     handle from its linearization point until it is logically deleted.
//   - try-delete-min is lock-free and linearizable with structural
//     ρ-relaxation, ρ = T·k for T registered handles: it returns a key among
//     the ρ+1 smallest, or fails. Failures may be spurious under concurrency
//     but repeated calls eventually succeed while items remain.
//   - local ordering: a handle never skips keys it inserted itself, so
//     per-handle insert/delete sequences behave like an exact priority queue.
//
// The package also provides the standalone DistLSM the paper evaluates as
// DLSM in Figure 3 (DistOnly: local ordering only, no ρ bound). The shared
// k-LSM alone needs no mode of its own: at k = 0 every insert overflows into
// it as a singleton block.
package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"klsm/internal/block"
	"klsm/internal/distlsm"
	"klsm/internal/item"
	"klsm/internal/sharedlsm"
	"klsm/internal/xrand"
)

// Mode selects which components of the combined queue are active.
type Mode int

const (
	// Combined is the full k-LSM of §4.3.
	Combined Mode = iota
	// DistOnly is the standalone distributed LSM (DLSM in Figure 3):
	// maximum scalability, local ordering only, no global relaxation bound.
	DistOnly
)

// MaxRelaxation is the largest accepted relaxation parameter. Beyond it the
// DistLSM overflow threshold saturates at block.MaxLevel anyway (a handle can
// never hold more than 2^48-1 items locally), so larger k buys nothing —
// while leaving k unbounded lets ρ = T·k arithmetic overflow int for absurd
// inputs. NewQueue and SetRelaxation clamp to this bound; negative k panics
// in both.
const MaxRelaxation = 1<<uint(block.MaxLevel) - 1

// clampK validates a relaxation parameter: negative k panics, absurd k
// clamps to MaxRelaxation. Shared by NewQueue and SetRelaxation so the two
// entry points enforce the identical contract.
func clampK(k int) int {
	if k < 0 {
		panic("core: negative relaxation parameter k")
	}
	if k > MaxRelaxation {
		return MaxRelaxation
	}
	return k
}

// Config configures a Queue.
type Config[V any] struct {
	// K is the relaxation parameter: delete-min may return any of the
	// T·K+1 smallest keys. K = 0 gives the strictest (slowest) setting.
	K int
	// Mode selects the combined queue or the standalone DistLSM.
	Mode Mode
	// LocalOrdering enables the Bloom-filter check in the shared k-LSM.
	// The paper's implementation has it always on; the ablation benchmark
	// measures its cost.
	LocalOrdering bool
	// Drop, if non-nil, is the lazy-deletion callback (§4.5): items for
	// which it returns true are discarded during block maintenance and
	// never returned from delete-min.
	Drop block.DropFunc[V]
}

// Queue is the combined k-LSM relaxed priority queue. Create handles with
// NewHandle; all queue operations go through handles.
type Queue[V any] struct {
	cfg    Config[V]
	shared *sharedlsm.Shared[V]

	mu      sync.Mutex
	handles []*Handle[V]
	// victims is a copy-on-write snapshot of all handle DistLSMs, read
	// lock-free on the spy path.
	victims atomic.Pointer[[]*distlsm.Dist[V]]
	nextID  atomic.Uint64
	// kCurrent tracks the run-time-configurable relaxation parameter
	// (SetRelaxation); cfg.K is only its initial value.
	kCurrent atomic.Int64
	// closedStats accumulates the counters of closed handles, so Size and
	// Stats stay correct across handle churn (its Handles stays 0).
	// Guarded by mu.
	closedStats QueueStats
	// zombies holds DistLSMs of closed handles that still contain items
	// (DistOnly mode only, where no shared structure can absorb them); they
	// must stay spy-able. Guarded by mu.
	zombies []*distlsm.Dist[V]

	// dom is the queue's epoch domain, its one §4.4 reclamation scheme:
	// every handle registers one record, which its pool and its cursor
	// share — the cursor stamps it, the spies pin it — and melds from this
	// queue pin a guest record. Every pool and the shared k-LSM recycle
	// what the announcements have passed.
	dom block.Domain

	// The reaper adopts the §4.4 release obligations of closing handles:
	// limbo blocks and dropped-item references a pinned reader kept
	// parked, which would otherwise die with the handle's pool, leaking
	// their items to the GC uncounted. reaperMu serializes the adoption and
	// drain paths — close and Quiesce, never the operation hot paths.
	reaperMu    sync.Mutex
	reaperPool  *block.Pool[V]
	reaperItems *item.Pool[V]
	// closedReclaim accumulates the reclamation counters of closed handles
	// so the exactly-once ledger stays auditable across handle churn.
	// Guarded by reaperMu.
	closedReclaim ReclaimStats

	// refDeleted counts successful Deletes, which run on no handle. It is
	// last so that its writes share no cache line with dom's epoch, which
	// every pin and refresh reads.
	refDeleted atomic.Int64
}

// rebuildVictims refreshes the copy-on-write spy-victim snapshot from the
// registered handles plus any zombie DistLSMs. Caller must hold mu.
func (q *Queue[V]) rebuildVictims() {
	next := make([]*distlsm.Dist[V], 0, len(q.handles)+len(q.zombies))
	for _, hh := range q.handles {
		next = append(next, hh.dist)
	}
	next = append(next, q.zombies...)
	q.victims.Store(&next)
}

// NewQueue returns an empty queue with the given configuration. Negative
// cfg.K panics; cfg.K beyond MaxRelaxation is clamped to it.
func NewQueue[V any](cfg Config[V]) *Queue[V] {
	cfg.K = clampK(cfg.K)
	q := &Queue[V]{cfg: cfg}
	q.kCurrent.Store(int64(cfg.K))
	q.shared = sharedlsm.New[V](cfg.K, cfg.LocalOrdering)
	if cfg.Drop != nil {
		q.shared.SetDrop(cfg.Drop)
	}
	q.reaperItems = item.NewPool[V]()
	// The reaper reads no published block; its record announces nothing.
	q.reaperPool = block.NewPool(q.dom.Register(), q.reaperItems)
	empty := []*distlsm.Dist[V]{}
	q.victims.Store(&empty)
	return q
}

// K returns the current relaxation parameter.
func (q *Queue[V]) K() int { return q.shared.K() }

// SetRelaxation changes k at run time (paper §1: "the parameter k can be
// configured at run-time"). The change propagates lazily but promptly:
// the shared k-LSM uses the new k for every subsequent snapshot, and each
// handle applies the new DistLSM bound — evicting now-oversized local
// blocks — on its next insert. Until every handle has inserted once, the
// effective bound is max(old, new) per handle.
//
// Validation matches NewQueue: negative k panics (also for DistOnly queues,
// where the value is otherwise ignored — an invalid argument should never
// pass silently), and k beyond MaxRelaxation is clamped.
func (q *Queue[V]) SetRelaxation(k int) {
	k = clampK(k)
	if q.cfg.Mode == DistOnly {
		return // no shared component; the DLSM has no global bound
	}
	q.shared.SetK(k)
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, h := range q.handles {
		h.dist.SetK(k)
	}
	q.kCurrent.Store(int64(k))
}

// Mode returns the configured operating mode.
func (q *Queue[V]) Mode() Mode { return q.cfg.Mode }

// Handles returns the number of registered handles (the T in ρ = T·k).
func (q *Queue[V]) Handles() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.handles)
}

// Rho returns the current worst-case relaxation bound T·k.
func (q *Queue[V]) Rho() int { return q.Handles() * int(q.kCurrent.Load()) }

// Size returns the number of live keys, accurate to within the relaxation
// bound ρ (the paper's size operation): concurrent operations may be counted
// or missed while in flight.
func (q *Queue[V]) Size() int {
	q.mu.Lock()
	hs := append([]*Handle[V](nil), q.handles...)
	n := q.closedStats.Inserted - q.closedStats.Deleted - q.refDeleted.Load()
	q.mu.Unlock()
	for _, h := range hs {
		n += h.inserted.Load() - h.deleted.Load()
	}
	if n < 0 {
		n = 0
	}
	return int(n)
}

// FootprintItems returns the number of physical item slots currently held by
// published blocks — live items plus logically deleted or drop-filtered ones
// not yet compacted away. It is a racy diagnostic snapshot (blocks may be
// merged or retired mid-walk); its value is bounding the structure's memory
// in tests and benchmarks, where Size cannot serve: merge-time drop claims
// are invisible to the inserted/deleted counters.
func (q *Queue[V]) FootprintItems() int {
	n := 0
	for _, d := range *q.victims.Load() {
		for i := 0; i < d.Blocks(); i++ {
			if b := d.BlockAt(i); b != nil {
				n += b.Filled()
			}
		}
	}
	if snap := q.shared.Snapshot(); snap != nil {
		for i := 0; i < snap.Blocks(); i++ {
			if b := snap.BlockAt(i); b != nil {
				n += b.Filled()
			}
		}
	}
	return n
}

// NewHandle registers and returns a handle. A handle must only be used by
// one goroutine at a time; every goroutine operating on the queue needs its
// own handle. Handles are the unit of the relaxation bound: ρ = T·k with T
// the number of handles created.
func (q *Queue[V]) NewHandle() *Handle[V] {
	id := q.nextID.Add(1)
	h := &Handle[V]{
		q:   q,
		id:  id,
		rng: xrand.NewSeeded(id*0x9e3779b97f4a7c15 + 0x6a09e667),
	}
	kBound := int(q.kCurrent.Load())
	if q.cfg.Mode == DistOnly {
		kBound = -1 // unbounded: no overflow target exists
	}
	// §4.4 recycling: one block pool and one item pool per handle, and one
	// record in the queue's epoch domain, which the pool and the cursor
	// share. Blocks from the pool refcount their item slots and release
	// them into the handle's item pool when the block is recycled or
	// dropped.
	h.items = item.NewPool[V]()
	h.pool = block.NewPool(q.dom.Register(), h.items)
	h.dist = distlsm.New(id, kBound, h.pool)
	if q.cfg.Drop != nil {
		h.dist.SetDrop(q.cfg.Drop)
	}
	h.cursor = q.shared.NewCursor(id, xrand.NewSeeded(id*0xbf58476d1ce4e5b9+0x3c6ef372), h.pool)
	// DistOnly leaves overflow nil: its DistLSM is unbounded.
	if q.cfg.Mode != DistOnly {
		h.overflow = func(b *block.Block[V]) { q.shared.Insert(h.cursor, b) }
	}

	q.mu.Lock()
	q.handles = append(q.handles, h)
	q.rebuildVictims()
	q.mu.Unlock()
	return h
}

// Handle is one goroutine's access point to the queue, bundling the paper's
// thread-local state: the DistLSM, the shared-k-LSM snapshot cursor, and a
// private RNG.
type Handle[V any] struct {
	q        *Queue[V]
	dist     *distlsm.Dist[V]
	cursor   *sharedlsm.Cursor[V]
	rng      *xrand.Source
	id       uint64
	overflow func(*block.Block[V])

	// pool and items are the handle's §4.4 free lists.
	pool  *block.Pool[V]
	items *item.Pool[V]

	// batchScratch holds the wrapped items of an in-flight InsertBatch so
	// steady-state batch inserts allocate nothing beyond the block itself.
	// Owner-only, cleared after every use.
	batchScratch []*item.Item[V]

	// inserted/deleted are owner-incremented, read by Queue.Size.
	inserted atomic.Int64
	deleted  atomic.Int64

	// Deletion buffer (see delbuf.go): buf[bufPos:] holds version-stamped
	// candidates popped in ascending key order; bufAnchor is the shared
	// array they were validated against (nil anchors an empty shared
	// structure). bufCapKey is the fill-time cap every buffered entry is at
	// or below — the bound owner inserts are spliced against. fillHint
	// temporarily raises the refill size inside DrainMin. All owner-only.
	buf       []item.Snap[V]
	bufPos    int
	bufAnchor *sharedlsm.BlockArray[V]
	bufCapKey uint64
	fillHint  int

	// BufFills/BufPops/BufFlushes count deletion-buffer refills, successful
	// buffered pops, and invalidation flushes that discarded entries.
	// Atomic so Queue.Stats can read them concurrently.
	BufFills   atomic.Int64
	BufPops    atomic.Int64
	BufFlushes atomic.Int64

	// SpyCalls counts spy attempts for the ablation benchmarks. Atomic so
	// Queue.Stats can read it concurrently.
	SpyCalls atomic.Int64
}

// ID returns the handle's identity (used in Bloom filters).
func (h *Handle[V]) ID() uint64 { return h.id }

// Close retires the handle: its locally batched items are transferred to
// the shared k-LSM (so they stay reachable without the handle), and the
// handle is deregistered — it no longer counts toward ρ = T·k and its
// DistLSM stops being a spy victim. The handle must not be used afterwards.
//
// In DistOnly mode there is no shared structure to absorb the items, so the
// DistLSM stays registered as a spy victim (its items remain reachable);
// only the operation counters move. This mirrors the paper's model, which
// has no thread departure story at all — see DESIGN.md.
func (h *Handle[V]) Close() {
	// Buffered candidates were never taken; discarding them leaves the items
	// live in their blocks.
	h.bufInvalidate()
	if h.q.cfg.Mode != DistOnly {
		h.dist.DrainTo(h.overflow)
	}

	q := h.q
	q.mu.Lock()
	defer q.mu.Unlock()
	keep := q.handles[:0]
	for _, other := range q.handles {
		if other != h {
			keep = append(keep, other)
		}
	}
	if len(keep) == len(q.handles) {
		return // already closed
	}
	q.handles = keep
	if q.cfg.Mode == DistOnly && h.dist.Blocks() > 0 {
		// Keep the retired DistLSM spy-able; it holds live items.
		q.zombies = append(q.zombies, h.dist)
	}
	q.rebuildVictims()
	// Preserve the operation totals for Size and the counters for Stats.
	h.addStats(&q.closedStats)
	// Hand the cursor's parked entries to the shared limbo, then withdraw
	// the handle's record so an idle closed handle does not pin retired
	// blocks forever.
	q.shared.DrainRetired(h.cursor)
	q.dom.Withdraw(h.pool.Record())
	// Hand the §4.4 release obligations that would die with this handle to
	// the queue's reaper: limbo blocks and dropped-item references a
	// pinned reader kept parked. Without the handoff those references are
	// never released and their items leak to the GC whenever a close races
	// a spy or meld.
	q.reaperMu.Lock()
	ps := h.pool.Stats()
	q.closedReclaim.ItemsReclaimed += ps.ItemsReclaimed
	q.closedReclaim.ItemsLostLive += ps.ItemsLostLive
	q.closedReclaim.ItemPuts += h.items.Puts()
	a, r := h.items.Stats()
	q.closedReclaim.ItemSlabAllocs += a
	q.closedReclaim.ItemReuses += r
	q.reaperPool.Adopt(h.pool)
	// The reaper's pools only ever absorb obligations — nothing draws from
	// them — so drop what the adoption just reclaimed (items and block
	// shells) to the GC instead of pinning it for the queue's lifetime. The
	// ledger (Puts) is already counted.
	q.reaperItems.TrimFree(0)
	q.reaperPool.TrimFree()
	q.reaperMu.Unlock()
}

// Quiesce drives every deferred reclamation step to completion: it
// consolidates each handle's DistLSM (retiring fully dead blocks), runs a
// shared-k-LSM maintenance pass per handle, restamps every handle's epoch
// record, and drains the shared and per-handle limbos. After Quiesce on
// a queue whose items have all been deleted, every block has been recycled
// or dropped and every taken item has been released to an item pool exactly
// once.
//
// Quiesce is NOT safe to run concurrently with handle operations: the
// caller must guarantee that no goroutine is operating on any handle
// (shutdown, checkpoints, tests). On a queue still holding live items it is
// best-effort — blocks referenced by the live structure stay put, which is
// correct but reclaims nothing from them.
func (q *Queue[V]) Quiesce() {
	hs := q.handlesSnapshot()
	// Two maintenance passes: the first consolidates dead structure and
	// pushes the cleanups (parking superseded blocks in limbo at fresh
	// epochs), the second catches blocks the first pass's mutations only
	// just made dead.
	for pass := 0; pass < 2; pass++ {
		for _, h := range hs {
			h.dist.Consolidate()
			if q.cfg.Mode != DistOnly {
				q.shared.FindMin(h.cursor)
			}
		}
	}
	if q.cfg.Mode != DistOnly {
		// Lift every cursor's epoch pin first, then drain: entries parked
		// by the passes above carry epochs newer than the stamps the passes
		// left behind.
		for _, h := range hs {
			h.pool.Record().Stamp()
		}
		for _, h := range hs {
			q.shared.DrainRetired(h.cursor)
		}
	}
	for _, h := range hs {
		h.pool.DrainLimbo()
	}
	// Drain the reaper's adopted limbo: obligations handed over by closed
	// handles release here once no reader pinned before their retirement
	// is left. Nothing draws from the reaper's item pool, so reclaimed
	// items fall to the GC once their ledger entry is counted.
	q.reaperMu.Lock()
	q.reaperPool.DrainLimbo()
	q.reaperItems.TrimFree(0)
	q.reaperPool.TrimFree()
	q.reaperMu.Unlock()
}

// SnapshotLive emits every live (not logically deleted) item currently in
// the queue exactly once: all handle-local DistLSMs, the zombie DistLSMs of
// closed DistOnly handles, and the shared k-LSM snapshot. Items reachable
// from several blocks (spy copies, stale merge inputs) share one Item
// pointer, so deduplication is exact pointer identity. The caller must hold
// the same barrier Quiesce requires — no concurrent handle operation — which
// is what makes the walk a consistent cut: nothing is mid-publication, and
// the taken flag of every item is settled. This is the checkpoint scan of
// the persistence layer.
func (q *Queue[V]) SnapshotLive(emit func(key uint64, seq uint64, value V)) {
	seen := make(map[*item.Item[V]]struct{})
	emitBlock := func(b *block.Block[V]) {
		if b == nil {
			return
		}
		for _, it := range b.Items() {
			if it == nil || it.Taken() {
				continue
			}
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			emit(it.Key(), it.Seq(), it.Value())
		}
	}
	for _, d := range *q.victims.Load() {
		for i := 0; i < d.Blocks(); i++ {
			emitBlock(d.BlockAt(i))
		}
	}
	if snap := q.shared.Snapshot(); snap != nil {
		for i := 0; i < snap.Blocks(); i++ {
			emitBlock(snap.BlockAt(i))
		}
	}
}

// DistStats exposes the handle's DistLSM counters for benchmarks.
func (h *Handle[V]) DistStats() distlsm.Stats { return h.dist.Stats() }

// PoolStats exposes the handle's block-pool counters. Owner-only, like all
// pool operations.
func (h *Handle[V]) PoolStats() block.PoolStats { return h.pool.Stats() }

// Insert adds key with its payload to the queue (Listing 5). It always
// succeeds and is lock-free.
func (h *Handle[V]) Insert(key uint64, value V) {
	h.insertItem(h.items.Get(key, value))
}

// InsertSeq is Insert with a durability sequence number stamped on the item
// before publication. The persistence layer assigns each insert a unique seq
// and logs it to the write-ahead log; stamping it here lets the matching
// delete record (TryDeleteMinSeq) identify exactly which insert it consumed,
// no matter how many merges, spies or melds the item traveled through.
func (h *Handle[V]) InsertSeq(key uint64, value V, seq uint64) {
	it := h.items.Get(key, value)
	it.SetSeq(seq)
	h.insertItem(it)
}

// Ref names one incarnation of an inserted item for Delete: the item and
// its even version captured before publication. The zero Ref names nothing.
type Ref[V any] struct {
	it  *item.Item[V]
	ver uint64
}

// InsertRef is Insert returning a Ref to the inserted item.
func (h *Handle[V]) InsertRef(key uint64, value V) Ref[V] {
	it := h.items.Get(key, value)
	return Ref[V]{it, h.insertItem(it)}
}

// Delete logically deletes the item r names, reporting whether this call
// took it. It is one version-stamped CAS (§4.4), so it fails once the item
// was taken, and also once it was recycled into a later incarnation; merges,
// shrinks and pops skip the taken item like any popped one. r must come from
// this queue. Any goroutine may call it, without a handle.
func (q *Queue[V]) Delete(r Ref[V]) bool {
	if r.it == nil || !r.it.TryTakeAt(r.ver) {
		return false
	}
	q.refDeleted.Add(1)
	return true
}

// insertItem publishes a freshly obtained (unpublished) item, the shared
// tail of Insert, InsertSeq and InsertRef, and returns the item's version
// from before the publication.
func (h *Handle[V]) insertItem(it *item.Item[V]) uint64 {
	key := it.Key()
	ver := it.Version()
	h.inserted.Add(1)
	h.dist.Insert(it, h.overflow)
	// Splice the new key into the buffer at its ascending position (see
	// bufInsert); an overflow publication is caught by the anchor check like
	// any other shared movement.
	h.bufInsert(it, ver, key)
	return ver
}

// InsertBatch adds len(keys) keys with their payloads in one structural
// operation: the batch is wrapped in items, sorted once (descending, the
// block orientation), and published as a single pre-built block at level
// ⌈log₂n⌉ — one merge cascade for the whole batch instead of n level-0
// cascades, the same structural batching the LSM exploits internally (§4.1)
// surfaced at the API. Each key's insertion linearizes at the publication of
// that block; the relaxation bound is maintained exactly as for Insert
// (oversized blocks overflow to the shared k-LSM before the bound is
// exceeded). values may be nil (zero-value payloads); otherwise its length
// must equal len(keys) or InsertBatch panics.
func (h *Handle[V]) InsertBatch(keys []uint64, values []V) {
	h.InsertBatchSeqs(keys, values, nil)
}

// InsertBatchSeqs is InsertBatch with per-key durability sequence numbers:
// key i is stamped with seqs[i] before publication (see InsertSeq). seqs may
// be nil (no stamping — identical to InsertBatch) but a non-nil seqs must
// have len(seqs) == len(keys) or the call panics. The persistence layer uses
// this for both live batch inserts and recovery, where each checkpoint
// segment is re-published as one pre-sorted block carrying its items'
// original sequence numbers.
func (h *Handle[V]) InsertBatchSeqs(keys []uint64, values []V, seqs []uint64) {
	n := len(keys)
	if values != nil && len(values) != n {
		panic("core: InsertBatch keys/values length mismatch")
	}
	if seqs != nil && len(seqs) != n {
		panic("core: InsertBatch keys/seqs length mismatch")
	}
	if n == 0 {
		return
	}
	if n == 1 {
		var v V
		if values != nil {
			v = values[0]
		}
		if seqs != nil {
			h.InsertSeq(keys[0], v, seqs[0])
		} else {
			h.Insert(keys[0], v)
		}
		return
	}
	// Truncate the buffer at the batch minimum: only buffered candidates
	// above it can shadow a batch key.
	h.bufTruncate(slices.Min(keys))
	its := h.batchScratch[:0]
	for i, k := range keys {
		var v V
		if values != nil {
			v = values[i]
		}
		it := h.items.Get(k, v)
		if seqs != nil {
			it.SetSeq(seqs[i])
		}
		its = append(its, it)
	}
	// Sort once for the whole batch. pdqsort is O(n) on already-sorted or
	// reverse-sorted input, so pre-sorted batches pay a single scan.
	slices.SortFunc(its, func(a, b *item.Item[V]) int {
		switch {
		case a.Key() > b.Key():
			return -1
		case a.Key() < b.Key():
			return 1
		default:
			return 0
		}
	})
	b := h.pool.Get(block.LevelForCount(n))
	b.AppendSorted(its)
	h.inserted.Add(int64(n))
	h.dist.InsertBlock(b, h.overflow)
	clear(its)
	h.batchScratch = its[:0]
}

// DrainMin removes up to max items through the relaxed delete-min, invoking
// emit for each key/payload in pop order, and returns the number removed. It
// stops early when TryDeleteMin fails — which, after its unsuccessful spy
// pass, is the strongest emptiness signal the structure offers. Every pop
// individually satisfies the ρ = T·k bound and local ordering; the
// candidate window persists across the pops, so a steady-state drain costs
// one window build plus max O(1) pops rather than max full scans.
func (h *Handle[V]) DrainMin(max int, emit func(key uint64, value V)) int {
	return h.DrainMinSeq(max, func(k uint64, v V, _ uint64) { emit(k, v) })
}

// DrainMinSeq is DrainMin with the durability sequence number of each popped
// item passed to emit (see TryDeleteMinSeq); the persistence layer drains
// through it so every pop can be logged as a (key, seq) delete record.
func (h *Handle[V]) DrainMinSeq(max int, emit func(key uint64, value V, seq uint64)) int {
	if max > delBufSize {
		// Let refills inside this drain batch up to the drain size, so a
		// large drain costs O(max / fill) refills instead of max / delBufSize.
		h.fillHint = max
		defer func() { h.fillHint = 0 }()
	}
	for n := 0; n < max; n++ {
		k, v, s, ok := h.TryDeleteMinSeq()
		if !ok {
			return n
		}
		emit(k, v, s)
	}
	if max < 0 {
		return 0
	}
	return max
}

// findMinCandidate returns the better of the DistLSM minimum and the shared
// k-LSM candidate, as in Listing 5's inner loop.
func (h *Handle[V]) findMinCandidate() *item.Item[V] {
	local := h.dist.FindMin()
	if h.q.cfg.Mode == DistOnly {
		return local
	}
	shared := h.q.shared.FindMin(h.cursor)
	switch {
	case local == nil:
		return shared
	case shared == nil:
		return local
	case shared.Key() < local.Key():
		return shared
	default:
		return local
	}
}

// TryDeleteMin attempts to delete a minimal key per the relaxed semantics
// (Listing 5). On success it returns the key, its payload and true. A false
// result means no key was found; it may be spurious under concurrent
// modification, but repeated calls eventually succeed while live keys
// remain reachable.
//
// With a Drop callback configured, items the callback reports stale are
// claimed and discarded here instead of being returned, so TryDeleteMin
// never surfaces a dropped item (slightly stronger than the paper's
// maintenance-time-only lazy deletion).
//
// The common case is a deletion-buffer pop (see delbuf.go): one anchor
// check, one version-stamped CAS, zero shared-structure walks. When the
// buffer cannot serve, take runs Listing 5's claim loop, and an unsuccessful
// loop spies before reporting failure.
func (h *Handle[V]) TryDeleteMin() (key uint64, value V, ok bool) {
	key, value, _, ok = h.TryDeleteMinSeq()
	return key, value, ok
}

// TryDeleteMinSeq is TryDeleteMin additionally returning the durability
// sequence number stamped on the deleted item by InsertSeq (zero for items
// inserted without one). The persistence layer logs a delete record as
// (key, seq) so recovery can cancel exactly the consumed insert.
func (h *Handle[V]) TryDeleteMinSeq() (key uint64, value V, seq uint64, ok bool) {
	if k, v, s, ok := h.bufTryDelete(^uint64(0)); ok {
		return k, v, s, true
	}
	for {
		if k, v, s, ok := h.take(^uint64(0)); ok || !h.spy() {
			return k, v, s, ok
		}
	}
}

// take is Listing 5's claim loop behind both pops: it claims the better of
// the DistLSM minimum and the shared k-LSM candidate, and fails, claiming
// nothing, once both sides are empty or the better candidate's key exceeds
// bound (the unbounded pop passes ^0). A candidate above the bound proves
// dryness the same way emptiness does: it is a relaxed minimum, so
// everything reachable from here is >= it > bound.
//
// The loop tracks which side supplied each candidate: claiming or losing an
// item only changes that side, so only it is re-queried, while the other
// side's candidate is kept (a stale keeper is caught by its version like any
// other candidate). When the sticky hint proves nothing smaller can be on
// the shared side (sharedlsm.SkipShared), the shared side is skipped
// outright — both the ρ bound and local ordering hold for the local minimum.
func (h *Handle[V]) take(bound uint64) (key uint64, value V, seq uint64, ok bool) {
	drop := h.q.cfg.Drop
	mode := h.q.cfg.Mode
	local := h.dist.FindMin()
	var shared item.Snap[V]
	// In DistOnly mode there is no shared side; pretend it was fetched (and
	// found empty) so the loop never consults it.
	haveShared, sharedOK := mode == DistOnly, false
	for {
		if !haveShared && (local == nil || !h.q.shared.SkipShared(h.cursor, local.Key())) {
			shared, sharedOK = h.q.shared.FindMinSnap(h.cursor)
			haveShared = true
		}
		// candKey is the candidate's key as captured: a shared Snap is not
		// validated until TryTakeAt, and its item may have been recycled
		// since, so its live key must not be read here.
		var it *item.Item[V]
		var ver, candKey uint64
		fromShared := false
		if local != nil {
			it, candKey = local, local.Key()
		}
		if sharedOK && (local == nil || shared.Key < candKey) {
			it, ver, candKey, fromShared = shared.It, shared.Ver, shared.Key, true
		}
		if it == nil || candKey > bound {
			var zero V
			return 0, zero, 0, false
		}
		var won bool
		if fromShared {
			// Shared candidates may be window entries retained across
			// snapshots; the version-stamped CAS claims exactly the captured
			// incarnation or fails.
			won = it.TryTakeAt(ver)
		} else {
			won = it.TryTake()
		}
		if won {
			h.deleted.Add(1)
			if drop == nil || !drop(it.Key(), it.Value()) {
				return it.Key(), it.Value(), it.Seq(), true
			}
			// Filter-positive: discard and keep looking on the side that
			// lost it.
		}
		// Re-query only the side whose candidate was consumed (by us or by a
		// faster handle); the failed take implies another handle progressed,
		// so retrying preserves lock-freedom.
		if fromShared {
			shared, sharedOK = h.q.shared.FindMinSnap(h.cursor)
		} else {
			local = h.dist.FindMin()
			if mode == Combined {
				haveShared = haveShared && sharedOK
			}
		}
	}
}

// PeekMin returns a key/payload that TryDeleteMin could return, without
// deleting it. The view is relaxed exactly like TryDeleteMin's, and the two
// observe the same candidate source: PeekMin reads (and refills) the
// deletion-buffer head TryDeleteMin would pop next, so on a single handle
// the peeked key is exactly the next deleted key.
// Like TryDeleteMin, PeekMin never surfaces an item the Drop filter reports
// stale — filter-positive candidates are claimed and discarded in passing.
func (h *Handle[V]) PeekMin() (key uint64, value V, ok bool) {
	e, hit := h.bufPeek()
	if !hit && h.bufRefill() {
		e, hit = h.bufPeek()
	}
	if hit {
		return e.Key, e.It.Value(), true
	}
	drop := h.q.cfg.Drop
	for {
		it := h.findMinCandidate()
		if it == nil {
			// Mirror TryDeleteMin's emptiness protocol: items may sit in
			// other handles' DistLSMs, so an empty local+shared view spies
			// before reporting empty — otherwise peek and delete would
			// disagree about a non-empty queue.
			if !h.spy() {
				var zero V
				return 0, zero, false
			}
			continue
		}
		if drop != nil && drop(it.Key(), it.Value()) {
			// Same lazy-deletion rule as TryDeleteMin: claim the stale item
			// so no handle surfaces it, then look again.
			if it.TryTake() {
				h.deleted.Add(1)
			}
			continue
		}
		return it.Key(), it.Value(), true
	}
}

// spy copies blocks from other handles' DistLSMs into h's (paper §4.2).
// Following Listing 5 a random victim is tried first; if that yields
// nothing, the remaining victims are scanned once from a random start so
// that a false return gives a much stronger (though still relaxed) emptiness
// signal. The scan is bounded and wait-free apart from the copies
// themselves.
func (h *Handle[V]) spy() bool {
	victims := *h.q.victims.Load()
	if len(victims) == 0 {
		return false
	}
	h.SpyCalls.Add(1)
	start := h.rng.Intn(len(victims))
	for i := 0; i < len(victims); i++ {
		v := victims[(start+i)%len(victims)]
		if v == h.dist {
			continue
		}
		if h.dist.Spy(v) {
			// Spied-in items may undercut the fill-time local guard.
			h.bufInvalidate()
			return true
		}
	}
	return false
}

// spyDue is the bounded-drain liveness pass: an ordinary spy only fires when
// the spying handle is empty, so a due item (key <= bound) sitting in an
// idle handle's DistLSM would be invisible to a bounded drain running on
// this one — reachable by nobody until its owner happens to operate. spyDue
// sweeps every victim whose blocks provably hold a live key at or below the
// bound (distlsm.SpyBelow) and copies them in, returning whether anything
// was copied. A false return is the bounded-emptiness signal: no reachable
// structure held a key <= bound at the time of the sweep.
func (h *Handle[V]) spyDue(bound uint64) bool {
	victims := *h.q.victims.Load()
	copied := false
	for _, v := range victims {
		if v == h.dist {
			continue
		}
		if h.dist.SpyBelow(v, bound) {
			copied = true
		}
	}
	if copied {
		h.SpyCalls.Add(1)
		h.bufInvalidate()
	}
	return copied
}

// TryDeleteMinBounded is TryDeleteMin restricted to keys at or below bound:
// it claims and returns a relaxed-minimal item only when that item's key is
// <= bound, and returns false without claiming anything once every reachable
// candidate exceeds the bound. It is the deadline primitive ("pop everything
// due by now") the timer subsystem drains through. A false return means no
// key <= bound was reachable — including, unlike TryDeleteMin's emptiness,
// keys stranded in idle handles' local structures, which a due-bounded spy
// pass (spyDue) pulls in before concluding dryness. Candidates above the
// bound are left untouched and unordered relative to this call.
func (h *Handle[V]) TryDeleteMinBounded(bound uint64) (key uint64, value V, ok bool) {
	key, value, _, ok = h.TryDeleteMinBoundedSeq(bound)
	return key, value, ok
}

// TryDeleteMinBoundedSeq is TryDeleteMinBounded additionally returning the
// item's durability sequence number, mirroring TryDeleteMinSeq.
func (h *Handle[V]) TryDeleteMinBoundedSeq(bound uint64) (key uint64, value V, seq uint64, ok bool) {
	if k, v, s, ok := h.bufTryDelete(bound); ok {
		return k, v, s, true
	}
	if k, v, s, ok := h.take(bound); ok || !h.spyDue(bound) {
		return k, v, s, ok
	}
	return h.take(bound)
}

// DrainMinBounded removes up to max items with keys at or below bound,
// invoking emit for each in pop order, and returns the number removed. It
// stops early when TryDeleteMinBounded fails — after its due-bounded spy
// pass, the strongest "nothing due" signal the structure offers. Each pop
// individually satisfies the ρ = T·k bound and local ordering; relative
// order of pops within the bound is relaxed exactly like DrainMin's.
func (h *Handle[V]) DrainMinBounded(bound uint64, max int, emit func(key uint64, value V)) int {
	return h.DrainMinBoundedSeq(bound, max, func(k uint64, v V, _ uint64) { emit(k, v) })
}

// DrainMinBoundedSeq is DrainMinBounded with each pop's durability sequence
// number passed to emit, mirroring DrainMinSeq.
func (h *Handle[V]) DrainMinBoundedSeq(bound uint64, max int, emit func(key uint64, value V, seq uint64)) int {
	if max > delBufSize {
		h.fillHint = max
		defer func() { h.fillHint = 0 }()
	}
	for n := 0; n < max; n++ {
		k, v, s, ok := h.TryDeleteMinBoundedSeq(bound)
		if !ok {
			return n
		}
		emit(k, v, s)
	}
	if max < 0 {
		return 0
	}
	return max
}

// Compact physically reclaims logically deleted and Drop-filtered items from
// every structure this handle owns or shares: its deletion buffer is
// discarded, its DistLSM is purged block-by-block, and the shared k-LSM is
// purged through this handle's cursor (distlsm.Purge / sharedlsm.Purge).
// Ordinary merges apply the filter only when blocks collide at a level, so a
// long-lived high-level block can hold filter-positive garbage indefinitely;
// Compact is the explicit pressure valve. Items removed here have their
// references released exactly once through the §4.4 retirement protocol.
// Owner only, like every handle operation; other handles' DistLSMs are
// untouched (their garbage is bounded by the per-handle size bound ~2(k+1)).
func (h *Handle[V]) Compact() {
	h.bufInvalidate()
	h.dist.Purge()
	if h.q.cfg.Mode != DistOnly {
		h.q.shared.Purge(h.cursor)
	}
}
