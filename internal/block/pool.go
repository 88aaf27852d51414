// Block and item recycling (paper §4.4).
//
// The C++ k-LSM's performance depends on never allocating in the hot paths:
// blocks and items are recycled through free lists, with versioned flags
// defeating ABA. Go's garbage collector changes the trade-off — safety never
// requires recycling — but the allocation rate still does: every insert
// creates a level-0 block and every merge a 2^level pointer slice, and that
// garbage dominates the operation cost. This file implements the Go
// translation of §4.4:
//
//   - Pool is a per-handle, level-indexed free list of blocks. It is owned
//     by exactly one goroutine (like the paper's thread-local free lists)
//     and never locked.
//   - Private blocks — created by the owner and not yet published — are
//     recycled immediately via Put the moment they are merged away.
//   - Published blocks — reachable through a DistLSM slot until the owner
//     unlinks them — go through Retire after the unlinking stores. If no
//     reader of the queue's epoch domain (epoch.go) is pinned, they recycle
//     at once; otherwise they park in the pool's limbo, tagged with a fresh
//     epoch, until every pinned reader has passed it. Finding out scans the
//     domain's records only if a reader has pinned since the pool's last
//     scan. This is the "reuse contract": a retired block re-enters the
//     free list only once it is unreachable from every published structure
//     and every reader.
//
// Item reclamation (§4.4 proper, lineage-batched): every pool carries its
// handle's item pool and maintains per-item reference counts at
// block-lineage granularity. AcquireRefs — called once when a lineage
// begins (insert's level-0 block, spy copies, plain copies entering the
// shared k-LSM) — takes one reference per occupied slot, and the transfer
// merges move those references to each generation's successor instead of
// re-acquiring them. The references of items a transfer filters out land
// in the caller's obligation list, which the DistLSM retires with its
// unlinked blocks: they release under the same epoch proof (the shared
// k-LSM parks its own in its limbo and releases them through Release).
// Every reffed, undonated block this pool recycles or drops releases its
// references first — releasing happens exactly where the reuse contract
// already proves the block unreachable, so the proofs carry over to the
// items. A release that drops an item's last reference returns the (taken)
// item to the handle's item pool; blocks that overflow the free-list caps or
// the level bound still release their items before the garbage collector
// takes the block shell. No limbo entry that owns references is ever
// dropped, so the release ledger is exact.
package block

import "klsm/internal/item"

const (
	// freeCapLevel0 and freeCap bound the free list per level; level 0 is
	// the per-insert allocation and much hotter than the rest.
	freeCapLevel0 = 64
	freeCap       = 4
	// maxPoolLevel bounds which blocks are pooled at all: clearing a
	// retired block's slot array is O(capacity), which stops amortizing
	// against the merge that filled it somewhere around a few MB.
	maxPoolLevel = 20
)

// PoolStats is a snapshot of pool counters for tests and diagnostics.
type PoolStats struct {
	Gets    int64 // total Get calls
	Hits    int64 // Gets served from the free list
	Puts    int64 // blocks recycled (immediately or via limbo)
	Retired int64 // blocks retired (Retire, Adopt)
	Dropped int64 // blocks abandoned to the GC (free-list caps or level bound)

	// Item-reclamation counters (§4.4 proper).
	ItemsReclaimed int64 // taken items returned to the item pool by a final Unref
	ItemsLostLive  int64 // final Unref on a live item (indicates a bug; see Release)
}

// Pool is a per-handle, level-indexed block free list (§4.4). Not safe for
// concurrent use: all methods are owner-only.
type Pool[V any] struct {
	// rec is the owning handle's record in the queue's epoch domain; its
	// cursor stamps and its spies pin through it.
	rec *Record
	// items is the owning handle's item pool: blocks release their slots'
	// references here on recycle or drop, and taken items whose last
	// reference died are recycled into it.
	items *item.Pool[V]
	free  [maxPoolLevel + 1][]*Block[V]
	// limbo parks retired blocks and obligations until every reader pinned
	// at their retirement has unpinned.
	limbo Limbo[V]
	// quiet records that the last scan of the domain found no reader
	// pinned, after the domain's pin count read quietAt.
	quiet   bool
	quietAt uint64
	stats   PoolStats
}

// NewPool returns an empty pool owned by the handle announcing through rec,
// whose item releases flow into items.
func NewPool[V any](rec *Record, items *item.Pool[V]) *Pool[V] {
	return &Pool[V]{rec: rec, items: items}
}

// Record returns the owning handle's record.
func (p *Pool[V]) Record() *Record { return p.rec }

// Get returns an empty private block of the given level, recycled when
// possible.
func (p *Pool[V]) Get(level int) *Block[V] {
	p.stats.Gets++
	p.reap()
	if level <= maxPoolLevel {
		if fl := p.free[level]; len(fl) > 0 {
			b := fl[len(fl)-1]
			fl[len(fl)-1] = nil
			p.free[level] = fl[:len(fl)-1]
			p.stats.Hits++
			return b
		}
	}
	return New[V](level)
}

// Release releases one lineage reference on it and reclaims the item if
// that was the last one (§4.4 proper). The caller supplies the proof that
// no reader can still acquire the item through the structure the reference
// guarded (an epoch horizon, or privacy); the limbos release their
// obligations through it.
func (p *Pool[V]) Release(it *item.Item[V]) {
	if !it.Unref() {
		return
	}
	if it.Taken() {
		// Last reference on a taken item: this pool's handle owns it
		// exclusively now — recycle (§4.4 proper).
		p.items.Put(it)
		p.stats.ItemsReclaimed++
	} else {
		// A live item at refcount zero is unreachable yet undeleted — a
		// reachability bug upstream. It falls to the GC; the counter lets
		// tests assert this never happens.
		p.stats.ItemsLostLive++
	}
}

// releaseItems releases the references b owns — one per slot in [0, refHi),
// the occupied range when the references were acquired or transferred
// (filled may have shrunk since; the trimmed slots keep their pointers and
// their references). Donated blocks release nothing: their references moved
// to a successor.
func (p *Pool[V]) releaseItems(b *Block[V]) {
	if !b.reffed || b.donated {
		return
	}
	for _, it := range b.items[:b.refHi] {
		p.Release(it)
	}
}

// Put recycles a block immediately. Contract: b is private — it was never
// published, or this call site can otherwise prove no other goroutine can
// reach it (limbo releases). The block's item references are released
// first (reclaiming taken items whose last reference died), even when the
// caps below make the block itself fall to the garbage collector; the
// bookkeeping is cleared with them, so a block never releases twice. The
// reservation word is cleared too: a recycled shell republished later is a
// new block, which no earlier reservation covers.
func (p *Pool[V]) Put(b *Block[V]) {
	if b == nil {
		return
	}
	p.releaseItems(b)
	b.reffed, b.donated, b.refHi = false, false, 0
	b.res.Store(0)
	level := b.level
	if level > maxPoolLevel || len(p.free[level]) >= p.freeCap(level) {
		p.stats.Dropped++
		return
	}
	clear(b.items)
	b.filled.Store(0)
	b.filter = 0
	p.stats.Puts++
	p.free[level] = append(p.free[level], b)
}

// Retire recycles blocks that were published and have now been unlinked by
// the owner, and releases obligations (references a transfer's donors held
// beyond what its result took over). Every store that makes them
// unreachable to new readers must precede the call. If no reader is pinned,
// they recycle at once, together with everything parked earlier; otherwise
// they park in the limbo, tagged with a fresh epoch that every reader pinned
// now is behind, and recycle once each of those has unpinned. The slices'
// contents are consumed; the slices stay with the caller.
func (p *Pool[V]) Retire(blocks []*Block[V], items []*item.Item[V]) {
	if len(blocks)+len(items) == 0 {
		return
	}
	p.stats.Retired += int64(len(blocks))
	if !p.quiescent() {
		p.limbo.Add(p.rec.dom.Bump(), blocks, items, 0)
		return
	}
	for _, b := range blocks {
		p.Put(b)
	}
	for _, it := range items {
		p.Release(it)
	}
}

// quiescent recycles what the limbo holds below the pin horizon and
// reports whether no reader is pinned. The records are scanned only if a
// reader has pinned since the last scan that found none: otherwise none is
// pinned now, and one that pins later loads only after the caller's
// unlinking stores.
func (p *Pool[V]) quiescent() bool {
	d := p.rec.dom
	h := inactive
	if n := d.pins.Load(); !p.quiet || n != p.quietAt {
		h = d.Horizon(nil, false)
		p.quiet, p.quietAt = h == inactive, n
	}
	p.limbo.Release(h, p, false)
	return p.quiet
}

// Adopt takes over the limbo of a closing pool of the same domain, tags
// and all, so its obligations release here instead of dying with it.
// Owner-only on both pools.
func (p *Pool[V]) Adopt(from *Pool[V]) {
	n, _ := from.limbo.Len()
	p.stats.Retired += int64(n)
	p.limbo.Take(&from.limbo, 0, 0, 0)
	p.reap()
}

// DrainLimbo recycles every parked block and obligation no pinned reader
// holds back, and reports whether the limbo is empty afterwards. Used by
// shutdown and test quiesce paths that need the parked item references
// released deterministically.
func (p *Pool[V]) DrainLimbo() bool {
	p.reap()
	return p.limbo.Empty()
}

// TrimFree drops every free-listed block shell to the garbage collector.
// Pools that only ever absorb obligations and never serve Get (the queue
// reaper) call it after drains so adopted shells — up to multi-MiB slot
// arrays — do not stay pinned for the pool's lifetime.
func (p *Pool[V]) TrimFree() {
	for level := range p.free {
		clear(p.free[level])
		p.free[level] = p.free[level][:0]
	}
}

// reap recycles what the limbo holds below the pin horizon.
func (p *Pool[V]) reap() {
	if !p.limbo.Empty() {
		p.quiescent()
	}
}

// freeCap returns the free-list bound for a level.
func (p *Pool[V]) freeCap(level int) int {
	if level == 0 {
		return freeCapLevel0
	}
	return freeCap
}

// Stats returns a snapshot of the pool counters (owner-only, like every
// other method).
func (p *Pool[V]) Stats() PoolStats { return p.stats }
