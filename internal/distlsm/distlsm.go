// Package distlsm implements the distributed LSM priority queue of paper
// §4.2 (Listing 4).
//
// Every handle (the paper's "thread") owns one Dist instance and is the only
// writer to it; other handles interact exclusively through Spy, which
// non-destructively copies block contents. Single-writer/multi-reader imposes
// the package's publication discipline:
//
//   - block slots and the size counter are atomics, and the owner orders its
//     stores so that every live item stays reachable through (blocks, size)
//     at every instant: new/merged blocks are stored before the blocks they
//     replace become unreachable, and transfers to the shared k-LSM complete
//     before the transferred blocks are dropped here. Spying threads may
//     consequently observe the same item twice (stale block plus merged
//     block), which the logical-deletion flag de-duplicates.
//   - published blocks are never mutated except for monotonically shrinking
//     their filled counter.
//
// When used inside the combined k-LSM (§4.3), the Dist is bounded: no block
// may reach level ⌊log2(k+1)⌋, so a handle's Dist holds at most k items —
// the property the ρ = T·k relaxation bound of Lemma 2 rests on. Blocks
// growing past the bound are handed to the overflow callback (the shared
// k-LSM) instead of being stored locally.
//
// Memory reclamation (§4.4): the owner draws blocks from its per-handle pool;
// private blocks (the per-insert level-0 block, merge intermediates) recycle
// the moment they are merged away, while published blocks are retired only
// after the stores that unlink them, gated by the queue-wide spy guard. An
// item's reference is acquired once at insert (the level-0 block) or at a spy
// copy, and every merge or compaction in this package *transfers* its inputs'
// references to the result (block.MergeTransferIn / ShrinkTransferIn) instead
// of re-acquiring them — zero refcount traffic per generation for surviving
// items. The references of items a merge filters out collect in the
// operation's obligation list (owed) and are parked in the pool's item limbo
// right after the stores that unlink their donor blocks; the pool releases
// every reference exactly when the reuse contract proves the holder dead,
// returning taken items to the handle's item pool. Blocks overflowing to the
// shared k-LSM carry their references with them. See DESIGN.md,
// "Deterministic item reclamation".
package distlsm

import (
	"sync/atomic"

	"klsm/internal/block"
	"klsm/internal/bloom"
	"klsm/internal/item"
)

// Stats is a snapshot of structural event counters for the ablation
// benchmarks and diagnostics.
type Stats struct {
	Merges       int64 // block merges performed by inserts
	Overflows    int64 // blocks transferred to the shared k-LSM
	Spies        int64 // successful spy operations
	SpiedBlocks  int64 // blocks copied by spy operations
	Consolidates int64 // consolidation passes
}

// statCounters is the live, owner-written representation; atomics so
// diagnostic snapshots may be taken concurrently.
type statCounters struct {
	merges       atomic.Int64
	overflows    atomic.Int64
	spies        atomic.Int64
	spiedBlocks  atomic.Int64
	consolidates atomic.Int64
}

// Dist is one handle's distributed LSM priority queue.
type Dist[V any] struct {
	blocks [block.MaxLevel + 1]atomic.Pointer[block.Block[V]]
	size   atomic.Int64

	// ownerID tags blocks with the owning handle for the shared k-LSM's
	// Bloom-filter-based local ordering; ownerMask is its precomputed
	// Bloom filter bit pattern.
	ownerID   uint64
	ownerMask bloom.Filter

	// maxLevel is the overflow threshold: a merged block reaching this level
	// is transferred to the shared k-LSM. maxLevel <= 0 disables local
	// storage entirely (k = 0); maxLevel > block.MaxLevel disables overflow
	// (standalone DLSM). It is atomic because the relaxation parameter can
	// be reconfigured at run time (paper §1) by a goroutine other than the
	// owner; the owner reads it on every insert.
	maxLevel atomic.Int64

	drop  block.DropFunc[V]
	stats statCounters

	// pool is the owner handle's §4.4 block free list. Private blocks
	// (the per-insert level-0 block, merge intermediates) recycle
	// immediately; published blocks that the owner unlinks go through
	// Retire, whose guard keeps them parked while any spy that might
	// still hold their pointer is active. All pools of one queue share
	// that queue's guard, which Spy brackets.
	pool *block.Pool[V]
	// retireScratch and consolidation scratch buffers avoid per-call slice
	// allocations on the owner's hot paths; owed collects one operation's
	// transfer obligations until its unlink stores.
	retireScratch []*block.Block[V]
	runScratch    []*block.Block[V]
	freshScratch  []bool
	owed          []*item.Item[V]

	// Min cache: mins[i] is the live minimum of blocks[i] as of the last
	// owner scan, so the steady-state FindMin is a handful of key compares
	// instead of a ShrinkInPlace walk over every block. All fields are
	// owner-only (plain, not atomic): every mutation of the block array is
	// owner-only, and the cache is maintained precisely at each one. An
	// entry stays valid while its item is not taken — items referenced by a
	// published block are never recycled (§4.4 reuse contract), taken flags
	// never revert, and published blocks only ever shrink, so a live cached
	// item *is* still its block's minimum. A taken entry triggers a rescan
	// of that block only. cacheLen == current size marks the cache valid;
	// -1 invalidates it (the next FindMin repopulates with its full scan).
	cacheLen int
	mins     [block.MaxLevel + 1]*item.Item[V]
}

// UnboundedLevel disables overflow: the Dist keeps every block locally.
const UnboundedLevel = block.MaxLevel + 1

// maxLevelFor computes the overflow threshold ⌊log2(k+1)⌋: levels
// 0..maxLevel-1 may be stored locally, so at most 2^maxLevel - 1 <= k items
// reside in the Dist. The result is clamped to block.MaxLevel: beyond it the
// naive shift overflows int (Go defines the over-wide shift as 0) and the
// loop would never terminate — the same bug class as LevelForCount's clamp —
// and no block may exceed block.MaxLevel anyway.
func maxLevelFor(k int) int {
	if k >= 1<<uint(block.MaxLevel)-1 {
		return block.MaxLevel
	}
	level := 0
	for 1<<uint(level+1) <= k+1 {
		level++
	}
	return level
}

// New returns a Dist owned by handle ownerID, bounded for relaxation
// parameter k, drawing its blocks from the owner handle's pool (§4.4). k < 0
// means unbounded (standalone DLSM mode). The pool's guard must be shared by
// every pool of the queue so Spy and Retire agree on reader quiescence.
func New[V any](ownerID uint64, k int, pool *block.Pool[V]) *Dist[V] {
	d := &Dist[V]{ownerID: ownerID, ownerMask: bloom.Mask(ownerID), pool: pool, cacheLen: -1}
	if k < 0 {
		d.maxLevel.Store(UnboundedLevel)
	} else {
		d.maxLevel.Store(int64(maxLevelFor(k)))
	}
	return d
}

// SetK re-derives the overflow threshold from a new relaxation parameter
// (run-time reconfiguration, paper §1). Safe to call from any goroutine;
// the owner applies it — including evicting now-oversized blocks — on its
// next insert.
func (d *Dist[V]) SetK(k int) {
	if k < 0 {
		d.maxLevel.Store(UnboundedLevel)
		return
	}
	d.maxLevel.Store(int64(maxLevelFor(k)))
}

// SetDrop installs the lazy-deletion callback applied during merges.
func (d *Dist[V]) SetDrop(drop block.DropFunc[V]) { d.drop = drop }

// cacheValid reports whether the min cache mirrors blocks[0:sz].
func (d *Dist[V]) cacheValid(sz int) bool { return d.cacheLen == sz }

// Stats returns a snapshot of the structural event counters. Safe to call
// from any goroutine.
func (d *Dist[V]) Stats() Stats {
	return Stats{
		Merges:       d.stats.merges.Load(),
		Overflows:    d.stats.overflows.Load(),
		Spies:        d.stats.spies.Load(),
		SpiedBlocks:  d.stats.spiedBlocks.Load(),
		Consolidates: d.stats.consolidates.Load(),
	}
}

// MaxLevel exposes the overflow threshold for tests.
func (d *Dist[V]) MaxLevel() int { return int(d.maxLevel.Load()) }

// evictOversized transfers blocks at or above maxLevel to the shared k-LSM
// (owner only). A private copy is published to the overflow target before
// the local slots are compacted, so reachability is never interrupted — and
// because the overflow target receives a block nothing else references, it
// is free to recycle it (Shared.Insert assumes exactly that). The evicted
// originals go through the guard-gated Retire once unlinked.
func (d *Dist[V]) evictOversized(maxLevel int, overflow func(*block.Block[V])) {
	sz := int(d.size.Load())
	if sz == 0 {
		return
	}
	// Blocks are sorted by strictly decreasing level; oversized ones form a
	// prefix. Remember the originals: compaction overwrites their slots.
	unlinked := d.retireScratch[:0]
	evict := 0
	for evict < sz {
		b := d.blocks[evict].Load()
		if b == nil || b.Level() < maxLevel {
			break
		}
		nb := b.CopyIn(d.pool, b.Level())
		if nb.Empty() {
			d.pool.Put(nb) // only taken items: nothing to publish
		} else {
			s := nb.ShrinkIn(d.pool)
			if s != nb {
				d.pool.Put(nb)
			}
			overflow(s)
			d.stats.overflows.Add(1)
		}
		unlinked = append(unlinked, b)
		evict++
	}
	if evict == 0 {
		d.retireScratch = unlinked[:0]
		return
	}
	// Compact left; transient duplicates are fine, lost items are not.
	for i := evict; i < sz; i++ {
		d.blocks[i-evict].Store(d.blocks[i].Load())
	}
	d.size.Store(int64(sz - evict))
	if d.cacheValid(sz) {
		// The surviving blocks kept their relative order: shift their
		// cached minima down with them.
		copy(d.mins[:sz-evict], d.mins[evict:sz])
		d.cacheLen = sz - evict
	} else {
		d.cacheLen = -1
	}
	// The originals are now unreachable to new spies: recycle under the
	// reuse contract.
	for j, b := range unlinked {
		unlinked[j] = nil
		d.pool.Retire(b)
	}
	d.retireScratch = unlinked[:0]
}

// Insert adds it to the Dist (owner only). Following Listing 4, a level-0
// block is merged with existing blocks from the small end until levels are
// strictly decreasing. If the resulting block reaches the overflow threshold
// it is passed to overflow (when non-nil) *before* the merged-away blocks
// are unlinked, so the items never become unreachable. Insert reports
// whether the item was kept locally (false means it overflowed).
func (d *Dist[V]) Insert(it *item.Item[V], overflow func(*block.Block[V])) bool {
	b := d.pool.Get(0)
	b.SetBloom(d.ownerMask)
	b.Append(it)
	if b.Empty() {
		d.pool.Put(b) // never published: recycle immediately
		return true   // item was concurrently taken; nothing to do
	}
	// §4.4: the item's lineage reference is acquired once, here at birth;
	// every merge from now on transfers it instead of re-acquiring.
	b.AcquireRefs()
	return d.insertBlock(b, overflow)
}

// InsertBlock inserts a caller-built block of items through the same merge
// cascade Insert uses — the v2 batch-insert entry point (§4.1's structural
// batching surfaced at the API: n pre-sorted items arrive as one block at
// level ⌈log₂n⌉ instead of n level-0 merge cascades). b must be private to
// the owner, drawn from the owner's pool, non-empty, and sorted in
// non-increasing key order; the Dist stamps the owner's Bloom mask and
// acquires the block's lineage references here, and ownership of b — like an
// Insert item's — transfers to the structure. Blocks reaching the overflow
// threshold (including any b larger than k to begin with) are handed to
// overflow exactly as in Insert, so the ρ = T·k bound is preserved for every
// batch size. Reports whether the items stayed local (false: overflowed to
// the shared k-LSM).
func (d *Dist[V]) InsertBlock(b *block.Block[V], overflow func(*block.Block[V])) bool {
	if b == nil {
		return true
	}
	b.SetBloom(d.ownerMask)
	if b.Empty() {
		d.pool.Put(b)
		return true
	}
	// §4.4: one lineage acquisition for the whole batch, at birth — the same
	// entry point as Insert's level-0 block, amortized over n items.
	b.AcquireRefs()
	return d.insertBlock(b, overflow)
}

// insertBlock runs the merge loop for a prepared block. Exposed within the
// package for spy-assisted bulk moves. b must be private to the owner.
func (d *Dist[V]) insertBlock(b *block.Block[V], overflow func(*block.Block[V])) bool {
	maxLevel := int(d.maxLevel.Load())
	if overflow != nil {
		// Apply a run-time k reduction: evict blocks the new bound no
		// longer permits before growing the structure further.
		d.evictOversized(maxLevel, overflow)
	}
	sz := int(d.size.Load())
	cached := d.cacheValid(sz)
	i := sz
	// unlinked collects published blocks this operation merges away; they
	// are retired only after the publication stores below make them
	// unreachable to new spies (§4.4 reuse contract).
	unlinked := d.retireScratch[:0]
	for i > 0 {
		prev := d.blocks[i-1].Load()
		if prev == nil || prev.Empty() {
			// Empty slots can appear after consolidation races with nothing:
			// the owner wrote them; just absorb (the publication below
			// unlinks them).
			if prev != nil {
				unlinked = append(unlinked, prev)
			}
			i--
			continue
		}
		if prev.Level() > b.Level() {
			break
		}
		// Merge is non-destructive: prev stays reachable in its slot until
		// the final publication below. The merge transfers both inputs'
		// item references to the result (§4.4) — no refcount traffic here.
		merged := block.MergeTransferIn(d.pool, prev, b, d.drop, &d.owed)
		prev.Donate()
		b.Donate()
		d.pool.Put(b) // b never escaped this thread: recycle immediately
		unlinked = append(unlinked, prev)
		b = merged
		d.stats.merges.Add(1)
		i--
	}
	keptLocal := true
	// The merge loop only consumed blocks at indices >= the final i, so a
	// valid cache keeps its entries for the untouched prefix 0..i-1; the
	// cases below just fix up the boundary entry and length.
	newLen := -1
	switch {
	case b.Empty():
		// Everything merged away (drop callback / logical deletions). b may
		// still own a trimmed tail, so it goes through Retire — releasing
		// is safe only once the size store has unlinked the consumed blocks
		// and the guard is quiescent.
		d.size.Store(int64(i))
		d.pool.Retire(b)
		if cached {
			newLen = i
		}
	case overflow != nil && b.Level() >= maxLevel:
		// Publish to the shared k-LSM first; only then drop local
		// references (reachability is never interrupted, items are briefly
		// duplicated instead). Ownership of b — including its transferred
		// item references — moves to the shared k-LSM, which releases none
		// of them before this cursor's next shared operation, i.e. after
		// the size store below unlinks b's donors.
		overflow(b)
		d.stats.overflows.Add(1)
		d.size.Store(int64(i))
		keptLocal = false
		if cached {
			newLen = i
		}
	default:
		// Publication. AcquireRefs is the lineage entry point for a block
		// that was never merged (the bare level-0 fast path already
		// acquired at Insert, so this is a no-op there too).
		b.AcquireRefs()
		d.blocks[i].Store(b)
		d.size.Store(int64(i + 1))
		if cached {
			d.mins[i] = b.Min()
			newLen = i + 1
		}
	}
	d.cacheLen = newLen
	// The obligations of the merges (items they filtered out) park only
	// now, after the size store unlinked every donor block.
	d.retireOwed()
	for j, ub := range unlinked {
		unlinked[j] = nil
		d.pool.Retire(ub)
	}
	d.retireScratch = unlinked[:0]
	return keptLocal
}

// retireOwed parks the obligations the operation's transfers collected
// (owner only). Call it after the stores that unlink their donor blocks.
func (d *Dist[V]) retireOwed() {
	d.pool.RetireItems(d.owed)
	clear(d.owed)
	d.owed = d.owed[:0]
}

// FindMin returns the live minimum item without removing it (owner only), or
// nil if the Dist holds no live item. It opportunistically trims logically
// deleted tails and triggers consolidation when blocks have died.
//
// A valid min cache reduces the steady-state call to one key compare per
// block, rescanning only blocks whose cached minimum has been taken since
// the last scan (typically the one block a failed TryTake hit); after a
// structural mutation invalidated the cache, the call performs the full
// trimming scan and repopulates the cache.
//
// The returned item stays referenced by a published block of this Dist
// until the owner's next mutation, so the caller may read its key and claim
// it. That is why a scan that finds dead blocks is repeated after the
// consolidation it triggers: Consolidate releases the references of items
// taken or filter-claimed since the scan, and the scan's minimum may be one
// of them — recycled by another handle's pool while the caller still
// compares its key. The repeat scan does not trim, so it leaves no block
// emptied after the consolidation; blocks that died meanwhile wait for the
// next call.
func (d *Dist[V]) FindMin() *item.Item[V] {
	best, dead := d.scanMin(true)
	if dead {
		d.Consolidate()
		best, _ = d.scanMin(false)
	}
	return best
}

// scanMin is FindMin's per-block pass: it returns the live minimum and
// whether any block was found dead (owner only). With trim, blocks' taken
// tails are trimmed on the way (scanBlockMin); without, blocks are only
// read (LiveMin).
func (d *Dist[V]) scanMin(trim bool) (best *item.Item[V], dead bool) {
	sz := int(d.size.Load())
	cached := d.cacheValid(sz)
	for i := 0; i < sz; i++ {
		it := d.mins[i]
		if !cached || it == nil || it.Taken() {
			if trim {
				it = d.scanBlockMin(i)
			} else if b := d.blocks[i].Load(); b != nil {
				it, _ = b.LiveMin()
			} else {
				it = nil
			}
			d.mins[i] = it
		}
		if it == nil {
			dead = true
			continue
		}
		if best == nil || it.Key() < best.Key() {
			best = it
		}
	}
	d.cacheLen = sz
	return best, dead
}

// FillMin collects candidates for a per-handle deletion buffer (owner
// only): up to perBlock live items per block, ascending from each block's
// minimum, skipping keys above capKey. It returns dst extended and a guard
// key that lower-bounds every live key left uncollected — keys at or below
// min(capKey, guard) that FillMin returned are a complete ascending prefix
// of the Dist's live keys up to that bound, so popping them in order cannot
// skip a smaller key still stored here (the local-ordering requirement).
// guard is ^0 when every live key was collected.
//
// The entries are version-stamped, not taken: the caller validates each pop
// with TryTakeAt, and a discarded buffer leaves the items untouched in
// their blocks. Like FindMin, the walk repopulates the per-block min cache
// (the refill hook: one pass serves both the buffer and the cache) and
// trims logically deleted tails. The per-block walk is bounded, so a
// dead-item-riddled block costs O(perBlock) here and is left to
// consolidation.
func (d *Dist[V]) FillMin(dst []item.Snap[V], perBlock int, capKey uint64) ([]item.Snap[V], uint64) {
	sz := int(d.size.Load())
	guard := ^uint64(0)
	for i := 0; i < sz; i++ {
		b := d.blocks[i].Load()
		if b == nil || b.ShrinkInPlace() == 0 {
			d.mins[i] = nil
			continue
		}
		f := b.Filled()
		got := 0
		scan := perBlock*4 + 16
		foundMin := false
		// Blocks are sorted descending, so walking j from f-1 toward 0
		// yields ascending keys; b.Item(j).Key() lower-bounds every key at
		// an index <= j, collected or not — the basis of the guard.
		j := f - 1
		for ; j >= 0; j-- {
			if got >= perBlock || scan <= 0 {
				break
			}
			scan--
			it := b.Item(j)
			ver := it.Version()
			if ver&1 != 0 {
				continue
			}
			if !foundMin {
				d.mins[i] = it
				foundMin = true
			}
			k := it.Key()
			if k > capKey {
				break
			}
			dst = append(dst, item.Snap[V]{It: it, Ver: ver, Key: k})
			got++
		}
		if !foundMin {
			d.mins[i] = nil
		}
		if j >= 0 {
			if g := b.Item(j).Key(); g < guard {
				guard = g
			}
		}
	}
	d.cacheLen = sz
	return dst, guard
}

// scanBlockMin trims block i's logically deleted tail and returns its live
// minimum, or nil when the slot is empty or fully dead (owner only).
func (d *Dist[V]) scanBlockMin(i int) *item.Item[V] {
	b := d.blocks[i].Load()
	if b == nil {
		return nil
	}
	// Owner-side cheap cleanup: drop the logically deleted tail so the
	// next scan starts at a live minimum.
	if b.ShrinkInPlace() == 0 {
		return nil
	}
	it := b.Min()
	if it == nil || it.Taken() {
		// Taken between trim and read; treat as dead, consolidation cleans up.
		return nil
	}
	return it
}

// Consolidate compacts the block array (owner only): empty blocks are
// removed, underfull blocks shrunk, and level collisions re-merged, mirroring
// the paper's consolidate. References to old blocks are only dropped after
// their replacements are published (left-to-right overwrite, size last), so
// spying threads never lose sight of a live item.
//
// Recycling (§4.4): blocks created during this pass are private until the
// final publication, so the ones merged away again recycle immediately;
// original published blocks that do not survive are retired after the
// publication stores unlink them.
func (d *Dist[V]) Consolidate() {
	d.stats.consolidates.Add(1)
	sz := int(d.size.Load())
	runs := d.runScratch[:0]
	fresh := d.freshScratch[:0]
	unlinked := d.retireScratch[:0]
	for i := 0; i < sz; i++ {
		b := d.blocks[i].Load()
		if b == nil || b.Empty() {
			if b != nil {
				unlinked = append(unlinked, b)
			}
			continue
		}
		// ShrinkTransferIn may copy, donating b's item references to the
		// compacted copy; mutation of b is limited to lowering filled.
		s := b.ShrinkTransferIn(d.pool, &d.owed)
		sFresh := s != b
		if sFresh {
			b.Donate()
			unlinked = append(unlinked, b) // replaced by the compacted copy
		}
		if s.Empty() {
			// An emptied original, or an empty fresh copy that may still own
			// a trimmed tail: Retire (via the unlinked list) gates their
			// release on the publication stores below and guard quiescence.
			unlinked = append(unlinked, s)
			continue
		}
		// Restore strictly decreasing levels with a merge stack; merges
		// transfer their inputs' item references to the result (§4.4).
		for len(runs) > 0 && runs[len(runs)-1].Level() <= s.Level() {
			top, topFresh := runs[len(runs)-1], fresh[len(fresh)-1]
			m := block.MergeTransferIn(d.pool, top, s, d.drop, &d.owed)
			d.stats.merges.Add(1)
			top.Donate()
			s.Donate()
			if topFresh {
				d.pool.Put(top)
			} else {
				unlinked = append(unlinked, top)
			}
			if sFresh {
				d.pool.Put(s)
			} else {
				unlinked = append(unlinked, s)
			}
			s, sFresh = m, true
			runs, fresh = runs[:len(runs)-1], fresh[:len(fresh)-1]
		}
		if !s.Empty() {
			runs, fresh = append(runs, s), append(fresh, sFresh)
		} else {
			unlinked = append(unlinked, s)
		}
	}
	for i, r := range runs {
		// Publication: surviving originals and transfer-merged runs already
		// hold their item references (AcquireRefs is a defensive no-op);
		// the unlinked originals release theirs only in the Retire loop
		// below — donated ones release nothing.
		r.AcquireRefs()
		d.blocks[i].Store(r)
	}
	d.size.Store(int64(len(runs)))
	// Rebuild the min cache from the surviving runs: each is non-empty and
	// its tail was live when built (staleness is caught by the taken-flag
	// check on the next FindMin).
	for i, r := range runs {
		d.mins[i] = r.Min()
	}
	d.cacheLen = len(runs)
	// The merges' obligations park in the item limbo now that the stores
	// above unlinked every donor block.
	d.retireOwed()
	for j, ub := range unlinked {
		unlinked[j] = nil
		d.pool.Retire(ub)
	}
	clear(runs)
	d.runScratch = runs[:0]
	d.freshScratch = fresh[:0]
	d.retireScratch = unlinked[:0]
}

// Spy copies the victim's blocks into d (owner of d only; victim may be
// mutating concurrently). Copied blocks keep the victim's Bloom filter, and
// only blocks preserving d's strictly-decreasing level order are taken, as
// in Listing 4. Returns true if d is non-empty afterwards.
func (d *Dist[V]) Spy(victim *Dist[V]) bool {
	if victim == nil || victim == d {
		return d.size.Load() != 0
	}
	// Announce this reader to the queue-wide guard: while active, no owner
	// recycles a retired published block, so every pointer read below stays
	// valid even if the victim unlinks it mid-copy (§4.4).
	g := d.pool.Guard()
	g.Enter()
	defer g.Exit()
	copied := d.spyBlocks(victim, ^uint64(0))
	if copied > 0 {
		d.stats.spies.Add(1)
		d.stats.spiedBlocks.Add(copied)
	}
	return d.size.Load() != 0
}

// SpyBelow is the bounded-drain variant of Spy: it copies the victim's
// blocks into d only when the victim provably holds a live key at or below
// bound — the case where a deadline-bounded drain on this handle would
// otherwise strand a due item in an idle victim's local structure. Unlike
// Spy (which only fires when the spying handle is empty), SpyBelow is called
// while d may still hold items above the bound, so it reports whether any
// block was actually copied rather than whether d is non-empty. Owner of d
// only; the victim may be mutating concurrently.
func (d *Dist[V]) SpyBelow(victim *Dist[V], bound uint64) bool {
	if victim == nil || victim == d {
		return false
	}
	g := d.pool.Guard()
	g.Enter()
	defer g.Exit()
	// Pre-scan for a live key <= bound. LiveMin is read-only and safe on a
	// foreign block; the victim's owner-local min cache is NOT consulted
	// (it is unsynchronized plain state).
	vsz := int(victim.size.Load())
	due := false
	for i := 0; i < vsz && !due; i++ {
		b := victim.blocks[i].Load()
		if b == nil || b.Empty() {
			continue
		}
		if it, _ := b.LiveMin(); it != nil && it.Key() <= bound {
			due = true
		}
	}
	if !due {
		return false
	}
	copied := d.spyBlocks(victim, bound)
	if copied > 0 {
		d.stats.spies.Add(1)
		d.stats.spiedBlocks.Add(copied)
	}
	return copied > 0
}

// spyBlocks is the shared Spy/SpyBelow copy loop: it appends copies of the
// victim's level-compatible blocks to d and returns how many were taken.
// bound filters which blocks are worth taking: a block whose live minimum
// exceeds it cannot contain a due key and is skipped, so a bounded spy
// copies only the slice of the victim that can actually serve the drain —
// Spy passes ^uint64(0) to take everything. Must run under an entered
// guard (see Spy).
func (d *Dist[V]) spyBlocks(victim *Dist[V], bound uint64) int64 {
	vsz := int(victim.size.Load())
	copied := int64(0)
	for i := 0; i < vsz; i++ {
		b := victim.blocks[i].Load()
		if b == nil || b.Empty() {
			continue
		}
		if bound != ^uint64(0) {
			if it, _ := b.LiveMin(); it == nil || it.Key() > bound {
				continue
			}
		}
		sz := int(d.size.Load())
		level := b.Level()
		if sz != 0 {
			last := d.blocks[sz-1].Load()
			if last != nil && level >= last.Level() {
				// Would violate strictly decreasing levels; the victim
				// mutated under us or our own tail is already smaller. Stop
				// taking blocks — spy is best-effort.
				continue
			}
		}
		nb := b.CopyIn(d.pool, level)
		if nb.Empty() {
			d.pool.Put(nb)
			continue
		}
		// Publication under the guard: the victim's block cannot release
		// its references while this reader is active, so acquiring ours
		// here never races a final release.
		nb.AcquireRefs()
		d.blocks[sz].Store(nb)
		d.size.Store(int64(sz + 1))
		if d.cacheValid(sz) {
			// Spy only appends: existing cache entries stay aligned.
			d.mins[sz] = nb.Min()
			d.cacheLen = sz + 1
		} else {
			d.cacheLen = -1
		}
		copied++
	}
	return copied
}

// Purge physically removes logically deleted and drop-filtered items from
// every block (owner only): each published block holding any is replaced by
// a CopyDropIn copy, then a Consolidate pass restores the level invariant
// and recompacts. The copy re-acquires its own item references before
// publication (the spy-copy protocol), and the unlinked originals release
// theirs through Retire — items the copy skips are released exactly once,
// by the original block's retirement.
func (d *Dist[V]) Purge() {
	sz := int(d.size.Load())
	unlinked := d.retireScratch[:0]
	for i := 0; i < sz; i++ {
		b := d.blocks[i].Load()
		if b == nil || b.Empty() {
			continue
		}
		nb := b.CopyDropIn(d.pool, b.Level(), d.drop)
		if nb.Filled() == b.Filled() {
			// Nothing dropped or dead: keep the original (the copy never
			// acquired references, so recycling it releases nothing).
			d.pool.Put(nb)
			continue
		}
		// Same protocol as Spy: acquire the copy's references before the
		// store unlinks the original, so no item is ever reference-free
		// while reachable.
		nb.AcquireRefs()
		d.blocks[i].Store(nb)
		unlinked = append(unlinked, b)
	}
	d.cacheLen = -1
	for j, ub := range unlinked {
		unlinked[j] = nil
		d.pool.Retire(ub)
	}
	d.retireScratch = unlinked[:0]
	d.Consolidate()
}

// DrainTo publishes compacted copies of every block to overflow and then
// empties the Dist (owner only). Used when a handle retires: its items move
// to the shared k-LSM so the Dist no longer needs to be spy-reachable.
// Publication strictly precedes unlinking, so reachability is never
// interrupted (items are briefly duplicated, which logical deletion
// resolves).
func (d *Dist[V]) DrainTo(overflow func(*block.Block[V])) {
	sz := int(d.size.Load())
	unlinked := d.retireScratch[:0]
	for i := 0; i < sz; i++ {
		b := d.blocks[i].Load()
		if b == nil {
			continue
		}
		unlinked = append(unlinked, b)
		if b.Empty() {
			continue
		}
		nb := b.CopyIn(d.pool, b.Level())
		if nb.Empty() {
			d.pool.Put(nb)
			continue
		}
		s := nb.ShrinkIn(d.pool)
		if s != nb {
			d.pool.Put(nb)
		}
		overflow(s)
		d.stats.overflows.Add(1)
	}
	d.size.Store(0)
	d.cacheLen = 0
	// Retire the drained originals once the size store above unlinks them.
	// The pool dies with the closing handle, so for pure block reuse this
	// would be pointless — but Retire releases the originals' item
	// references (immediately when the guard is quiescent, which is the
	// common case on close), without which every item that passed through
	// this handle would stay GC-backstopped forever.
	for j, b := range unlinked {
		unlinked[j] = nil
		d.pool.Retire(b)
	}
	d.retireScratch = unlinked[:0]
}

// Empty reports whether the owner currently sees no blocks. Live items may
// still exist transiently during maintenance of other structures; callers
// needing certainty combine this with FindMin.
func (d *Dist[V]) Empty() bool { return d.size.Load() == 0 }

// Blocks returns the number of published blocks (racy snapshot; for tests).
func (d *Dist[V]) Blocks() int { return int(d.size.Load()) }

// BlockAt returns the published block in slot i, or nil. Safe from any
// goroutine; used by spy-style bulk readers (meld).
func (d *Dist[V]) BlockAt(i int) *block.Block[V] {
	if i < 0 || i > block.MaxLevel {
		return nil
	}
	return d.blocks[i].Load()
}

// LiveCount scans all blocks and counts live items (owner only; for tests
// and size estimation).
func (d *Dist[V]) LiveCount() int {
	sz := int(d.size.Load())
	n := 0
	for i := 0; i < sz; i++ {
		if b := d.blocks[i].Load(); b != nil {
			n += b.LiveCount()
		}
	}
	return n
}

// CheckInvariants verifies strictly decreasing levels and per-block order
// (owner only; for tests).
func (d *Dist[V]) CheckInvariants() bool {
	sz := int(d.size.Load())
	prevLevel := block.MaxLevel + 2
	for i := 0; i < sz; i++ {
		b := d.blocks[i].Load()
		if b == nil || b.Empty() {
			return false
		}
		if b.Level() >= prevLevel {
			return false
		}
		if !b.SortedDesc() {
			return false
		}
		prevLevel = b.Level()
	}
	return true
}
