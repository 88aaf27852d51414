// Package sharedlsm implements the shared k-LSM priority queue of paper §4.1
// (Listings 2 and 3).
//
// All threads see one atomic pointer to an immutable BlockArray. Updates are
// copy-on-write: a thread copies the array into a private snapshot, mutates
// the snapshot (insert, consolidate, pivot recalculation), and publishes it
// with a single compare-and-swap. Blocks themselves are shared between
// snapshots; they are never mutated after publication except for their
// filled counter, which may only shrink (trimming logically deleted tails),
// so every snapshot remains internally consistent.
//
// Delete-min relaxation: each BlockArray carries pivot offsets separating,
// per block, the keys guaranteed to be among the k+1 smallest of the whole
// array. find-min draws uniformly from that candidate set (through each
// cursor's incrementally maintained candidate window, candWindow) — this is
// the "any of the k+1 smallest" relaxation of the paper. Local ordering is
// layered on top through per-block Bloom filters: the minimum of every block
// that may contain the calling handle's items is compared against the random
// choice and the smaller key wins, so a handle never skips its own items.
//
// Go-specific note: the paper stamps the shared pointer with truncated
// version numbers to defeat ABA under manual memory reuse (§4.4). Go's GC
// cannot recycle a BlockArray while any handle still references it as
// `observed`, so the raw pointer CAS is ABA-safe here. The one value that
// does recur is nil: harmless to the CAS, since nil always means empty,
// but a cursor must never take it as proof that the array it published
// itself is still its private snapshot (Shared.stale).
//
// Memory reclamation (§4.4): blocks a winning CAS drops from the array park
// in an epoch-tagged limbo and recycle once every other cursor's stamp and
// every reader pin of the queue's epoch domain has passed their tag — see
// the Shared type for the full scheme. Item references move by
// transfer, as in the DistLSM: every block an attempt merges, copies,
// shrinks or drops is a donor, whose references pass to the attempt's
// results slot by slot, and whatever no result takes over (skipped items,
// trimmed tails) becomes an obligation. Nothing is written to a donor
// during the attempt, so a failed CAS discards the results and obligations
// and leaves every count as it was, while a winning CAS commits them: the
// results are published already owning their references, the donors
// retire releasing nothing, and the obligations park in the same epoch
// limbo and release under the same proof, returning taken items whose last
// reference died to the draining handle's item pool. Blocks enter the
// structure through Insert with their references, acquired on entry or
// carried from a DistLSM. See DESIGN.md, "Deterministic item reclamation".
package sharedlsm

import (
	"sort"

	"klsm/internal/block"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

// BlockArray is the immutable-once-published array of blocks (Listing 2).
// Mutating methods must only be called while the instance is private to one
// thread.
type BlockArray[V any] struct {
	// blocks is sorted by strictly decreasing level.
	blocks []*block.Block[V]
	// pivots[i] is the first index in blocks[i] whose key is <= the pivot
	// key; the suffix [pivots[i], filled) is the block's slice of the global
	// k+1-smallest candidate set. Offsets are computed against a filled
	// value read at calculation time and are clamped by readers, because
	// filled may shrink concurrently.
	pivots []int
	// k is the relaxation parameter the pivots were computed for.
	k int
	// pivotKey is the pivot key the offsets were computed against: one of
	// the k+1 smallest keys present at calculation time. Every candidate in
	// the pivot ranges has key <= pivotKey, and at most k keys present are
	// strictly smaller — the window uses it as its entry-validity bound.
	pivotKey uint64
	// minKey is the smallest key present at the last pivot calculation
	// (^0 when the array was empty). The array is immutable once published
	// except for shrinking, so minKey lower-bounds every key the array can
	// ever hold — the sticky skip-shared hint re-validates against it.
	minKey uint64
	// published marks arrays that won their CAS. Set by the owning cursor
	// just before the publication attempt and cleared on failure, so it is
	// only ever written while the array is private; cursors use it to
	// decide whether a superseded snapshot shell may be reused (§4.4).
	published bool
}

// newBlockArray returns an empty private array for relaxation parameter k.
func newBlockArray[V any](k int) *BlockArray[V] {
	return &BlockArray[V]{k: k}
}

// copyInto takes a private deep copy of a into dst, reusing dst's slices
// (block pointers are shared, the slices are not), as in Listing 2. dst is
// either fresh or a recycled never-published snapshot shell.
func (a *BlockArray[V]) copyInto(dst *BlockArray[V]) {
	dst.blocks = append(dst.blocks[:0], a.blocks...)
	dst.pivots = append(dst.pivots[:0], a.pivots...)
	dst.k = a.k
	dst.pivotKey = a.pivotKey
	dst.minKey = a.minKey
	dst.published = false
}

// alloc is the §4.4 recycling context a cursor threads through snapshot
// mutations: the owning handle's block pool, the blocks created during the
// current attempt (private until the snapshot wins its CAS, so recyclable
// if it does not), the attempt's transfer obligations, and scratch buffers
// for the hot consolidate/pivot paths.
//
// Every block an attempt takes out of the array moves its references by
// transfer: a merge, copy or shrink result takes over one reference per
// slot it copies, and everything else the donors held — the items the
// fills skipped and each donor's trimmed tail — collects in owed, as does
// the whole remainder of a block dropped empty. Nothing is written to a
// donor, so a failed attempt simply forgets owed and recycles its fresh
// blocks without releasing; a winning CAS makes the transfer definitive.
type alloc[V any] struct {
	pool  *block.Pool[V]
	fresh []*block.Block[V]
	owed  []*item.Item[V]

	runScratch  []*block.Block[V]
	pivotHeap   []pivotCur
	pivotFilled []int
}

// note records a block created during the current attempt.
func (al *alloc[V]) note(b *block.Block[V]) { al.fresh = append(al.fresh, b) }

// unnote removes b from the fresh list, reporting whether it was there. A
// true result proves b is private (created this attempt, never published),
// so the caller may recycle it immediately.
func (al *alloc[V]) unnote(b *block.Block[V]) bool {
	for i, f := range al.fresh {
		if f == b {
			last := len(al.fresh) - 1
			al.fresh[i] = al.fresh[last]
			al.fresh[last] = nil
			al.fresh = al.fresh[:last]
			return true
		}
	}
	return false
}

// replaced records that b's references moved to a transfer result of this
// attempt: a block created this attempt is private and recycles now,
// releasing nothing. A published block (or Insert's incoming one) stays
// untouched; the winning CAS retires it.
func (al *alloc[V]) replaced(b *block.Block[V]) {
	if al.unnote(b) {
		b.Donate()
		al.pool.Put(b)
	}
}

// dropEmpty takes an emptied block out of the attempt without a successor:
// the references it still holds (its trimmed slots) join the obligations.
func (al *alloc[V]) dropEmpty(b *block.Block[V]) {
	b.Relinquish(0, &al.owed)
	al.replaced(b)
}

// commitFresh forgets the fresh list after a winning push (the blocks are
// now shared and must not be recycled from here).
func (al *alloc[V]) commitFresh() {
	clear(al.fresh)
	al.fresh = al.fresh[:0]
}

// discard abandons the current attempt's work: fresh blocks recycle without
// releasing (their references never left the donors) and the obligations
// are forgotten. A no-op after a winning push, which commits both.
func (al *alloc[V]) discard() {
	for i, b := range al.fresh {
		al.fresh[i] = nil
		b.Donate()
		al.pool.Put(b)
	}
	al.fresh = al.fresh[:0]
	al.owed = block.Reuse(al.owed)
}

// empty reports whether the array holds no blocks.
func (a *BlockArray[V]) empty() bool { return len(a.blocks) == 0 }

// Blocks exposes the block count for tests.
func (a *BlockArray[V]) Blocks() int { return len(a.blocks) }

// BlockAt returns the block at index i, or nil when out of range. Callers
// must treat the block as read-only.
func (a *BlockArray[V]) BlockAt(i int) *block.Block[V] {
	if i < 0 || i >= len(a.blocks) {
		return nil
	}
	return a.blocks[i]
}

// insert adds nb at its level position and consolidates (Listing 2: "insert
// adds a block to the BlockArray at its correct level position, and calls
// consolidate to ensure that the levels of blocks in the array are strictly
// decreasing"). nb itself is never recycled here: until the snapshot wins
// its CAS the caller retries with the same block.
func (a *BlockArray[V]) insert(nb *block.Block[V], drop block.DropFunc[V], al *alloc[V]) {
	pos := len(a.blocks)
	for pos > 0 && a.blocks[pos-1].Level() <= nb.Level() {
		pos--
	}
	a.blocks = append(a.blocks, nil)
	copy(a.blocks[pos+1:], a.blocks[pos:])
	a.blocks[pos] = nb
	a.consolidate(drop, true, al)
}

// consolidate shrinks blocks, merges level collisions, and compacts the
// array (Listing 2's two passes, expressed as one merge-stack pass). It
// reports whether the array changed structurally — the signal that
// publishing the snapshot is worthwhile.
//
// Pivots are recalculated only when the structure changed or the caller
// demands it (needPivots; used when the candidate window is exhausted):
// the O(k log B) selection would otherwise dominate large-k delete-min.
func (a *BlockArray[V]) consolidate(drop block.DropFunc[V], needPivots bool, al *alloc[V]) bool {
	changed := false
	pool := al.pool
	runs := al.runScratch[:0]
	for idx, b := range a.blocks {
		if b == nil || b.Filled() == 0 {
			if b != nil {
				al.dropEmpty(b)
			}
			changed = true
			continue
		}
		// Shrink only trims the logically deleted *tail*; with large k,
		// deletions land uniformly in the candidate suffix and dead items
		// accumulate mid-block, degrading every subsequent find-min. When
		// the block is mostly dead (and big enough for the copy to
		// amortize), compact it whole. Pops only ever land under a pivot
		// and pivots only extend toward the block head, so every
		// un-trimmed popped item sits inside the *current* suffix [p, f) —
		// counting dead there measures the whole block (items taken by
		// core.Queue.Delete can sit anywhere; level merges and Purge
		// reclaim those). The trigger is
		// dead*2 >= f (half the block), not dead*2 >= f-p (half the
		// suffix): the suffix condition made steady drains of a large
		// block quadratic — each window's worth of deletions re-copied
		// all f items — while the whole-block condition charges each O(f)
		// copy to f/2 deaths, amortized O(1) per delete. Blocks whose
		// drained region forms a contiguous tail (bounded drains, FIFO-ish
		// deadline loads) never need the copy at all: the tail trim below
		// reclaims them incrementally.
		if idx < len(a.pivots) {
			f := b.Filled()
			p := a.pivots[idx]
			if p > f {
				p = f
			}
			const minCompact = 64
			if f-p >= minCompact {
				dead := 0
				for j := p; j < f; j++ {
					if b.Item(j).Taken() {
						dead++
					}
				}
				if dead*2 >= f {
					nb := b.CopyTransferIn(pool, b.Level(), nil, &al.owed)
					al.note(nb)
					al.replaced(b)
					b = nb
					changed = true
				}
			}
		}
		s := b.ShrinkTransferIn(pool, &al.owed)
		if s != b {
			// A compaction copy: fresh this attempt.
			al.note(s)
			al.replaced(b)
			changed = true
		}
		for !s.Empty() && len(runs) > 0 && runs[len(runs)-1].Level() <= s.Level() {
			top := runs[len(runs)-1]
			m := block.MergeTransferIn(pool, top, s, drop, &al.owed)
			al.note(m)
			al.replaced(top)
			al.replaced(s)
			s = m
			runs = runs[:len(runs)-1]
			changed = true
		}
		if s.Empty() {
			al.dropEmpty(s)
			changed = true
			continue
		}
		runs = append(runs, s)
	}
	if len(runs) != len(a.blocks) {
		changed = true
	}
	// Keep the superseded backing array as scratch for the next pass.
	al.runScratch = a.blocks
	a.blocks = runs
	if changed || needPivots {
		a.calculatePivots(al)
	}
	return changed
}

// pivotCur is calculatePivots' per-block tail cursor.
type pivotCur struct {
	key uint64
	blk int
	idx int // current cursor position within the block
}

// calculatePivots selects a pivot key that is one of the k+1 smallest keys
// present and records, per block, the offset of the first key <= pivot
// (Listing 2). Logically deleted items participate: including them only
// tightens the candidate set, and find-min's fallback handles them.
func (a *BlockArray[V]) calculatePivots(al *alloc[V]) {
	n := len(a.blocks)
	if cap(a.pivots) < n {
		a.pivots = make([]int, n)
	} else {
		a.pivots = a.pivots[:n]
	}
	a.pivotKey = 0
	a.minKey = ^uint64(0)
	if n == 0 {
		return
	}

	// Multiway selection of the (k+1)-th smallest key: walk each block from
	// its tail (minimum) toward its head with a cursor, always advancing the
	// block whose cursor key is globally smallest, k+1 times. A tiny manual
	// heap keyed by cursor key keeps this O(k log B). The heap and filled
	// scratch come from the cursor's recycling context.
	type cur = pivotCur
	if cap(al.pivotHeap) < n {
		al.pivotHeap = make([]cur, 0, n)
	}
	if cap(al.pivotFilled) < n {
		al.pivotFilled = make([]int, n)
	}
	heapArr := al.pivotHeap[:0]
	filled := al.pivotFilled[:n]
	defer func() {
		al.pivotHeap = heapArr[:0]
	}()
	heapPush := func(c cur) {
		heapArr = append(heapArr, c)
		i := len(heapArr) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heapArr[p].key <= heapArr[i].key {
				break
			}
			heapArr[p], heapArr[i] = heapArr[i], heapArr[p]
			i = p
		}
	}
	heapPop := func() cur {
		top := heapArr[0]
		last := len(heapArr) - 1
		heapArr[0] = heapArr[last]
		heapArr = heapArr[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && heapArr[l].key < heapArr[small].key {
				small = l
			}
			if r < last && heapArr[r].key < heapArr[small].key {
				small = r
			}
			if small == i {
				break
			}
			heapArr[i], heapArr[small] = heapArr[small], heapArr[i]
			i = small
		}
		return top
	}

	for i, b := range a.blocks {
		f := b.Filled()
		filled[i] = f
		a.pivots[i] = f // default: empty candidate range
		if f > 0 {
			heapPush(cur{key: b.Item(f - 1).Key(), blk: i, idx: f - 1})
		}
	}

	pivot := uint64(0)
	for taken := 0; taken <= a.k && len(heapArr) > 0; taken++ {
		c := heapPop()
		pivot = c.key
		if taken == 0 {
			a.minKey = c.key
		}
		if c.idx > 0 {
			ni := c.idx - 1
			heapPush(cur{key: a.blocks[c.blk].Item(ni).Key(), blk: c.blk, idx: ni})
		}
	}
	a.pivotKey = pivot

	// Per block, find the first index whose key is <= pivot. Blocks are
	// sorted descending, so this is a standard binary search.
	for i, b := range a.blocks {
		f := filled[i]
		a.pivots[i] = sort.Search(f, func(j int) bool {
			return b.Item(j).Key() <= pivot
		})
	}
}

// candWindow is a cursor's cached delete-min candidate window, maintained
// incrementally across snapshot states. Recomputing the candidate set —
// walking every block's pivot range and re-running the Bloom-filter
// local-ordering scan — on every FindMin call dominates the delete side once
// allocation is gone, and rebuilding it from scratch on every snapshot change
// (the previous design) costs O(k) per insert-churned delete at large k
// (EXPERIMENTS E14). The window therefore keeps its entries across snapshot
// changes and, on each sync, materializes only what the new state added: the
// pivot ranges of blocks it has never seen, and the extension [p_new, lo) of
// blocks whose pivot offset moved below the low-water mark lo already
// materialized (known tracks lo per block). Taken and out-of-range entries
// are trimmed lazily, at draw time.
//
// Entries are version-stamped item references (item.Snap), not pinned
// pointers: an entry may outlive the snapshot (and the §4.4 pin) it was read
// under, and the item may be taken, recycled and Reset into a new incarnation
// meanwhile. The version check at draw time — and TryTakeAt in the caller —
// detects exactly that, so a retained entry is either the same live
// incarnation whose key was once within a snapshot's k+1 smallest, or it is
// discarded.
//
// Why a retained entry still satisfies the rank bound: a live item present in
// a published array is present in every later published array (merges carry
// live items forward; consolidation filters only taken/dropped ones), and
// the cursor's snapshot is a copy of a published array it validated against
// the shared pointer. So a live entry with key <= the *current* snapshot's
// pivotKey is inside the current candidate bound — at most k keys of the
// snapshot multiset are strictly smaller — regardless of which snapshot it
// was materialized under. Entry validity at draw time is therefore exactly:
// version unchanged AND key <= bound (the sync-time pivotKey).
//
// Random pop order: instead of shuffling the whole window up front, next()
// draws one entry uniformly at random from the unconsumed suffix and swaps it
// to the front — an on-demand Fisher–Yates step, identical in distribution to
// the eager shuffle but O(1) per draw and compatible with appends. Two
// bounded deviations from the per-call uniform draw are documented in
// DESIGN.md: an item that migrated between blocks across a consolidation can
// transiently hold two valid entries (double draw weight) until one is
// consumed or a full rebuild dedups it, and entries the deletion buffer
// consumed pop in ascending key order. Neither affects the rank bound, which
// needs only that every returned key is within the pivot bound.
type candWindow[V any] struct {
	snap *BlockArray[V]
	gen  uint64
	pos  int
	// bound is the snapshot's pivotKey at the last sync: an entry is a valid
	// candidate iff its version is unchanged and its key is <= bound.
	bound uint64
	// dirty marks that live candidates may have left the window without
	// being taken — consumed into a deletion buffer, or discarded because
	// the bound moved below their key — since the last full build. A dry
	// window with dirty set must rebuild fully (re-materializing them from
	// the blocks, where they still live) before concluding the candidate
	// set is exhausted; otherwise those items would be unreachable until an
	// unrelated structural change.
	dirty bool
	// items is the candidate set: [0, pos) is consumed, [pos, len) is the
	// pool next() draws from.
	items []item.Snap[V]
	// known records, per block of the synced state, the lowest pivot index
	// already materialized; sync extends only below it. scratch is the
	// previous generation's backing array, recycled to avoid allocation.
	known   []winSrc[V]
	scratch []winSrc[V]
	// local caches the blocks whose Bloom filter may contain the owning
	// handle's id, so the local-ordering overlay skips the per-call filter
	// scan over all blocks. lcur/lkey/lver are fillLocal's per-block merge
	// cursors and cached head entries, kept here to avoid per-fill
	// allocations.
	local []*block.Block[V]
	lcur  []int
	lkey  []uint64
	lver  []uint64
}

// winSrc is the window's per-block low-water mark: indices [lo, filled) of
// blk have been materialized (under some earlier filled value; filled only
// shrinks, so the range can only have lost entries since).
type winSrc[V any] struct {
	blk *block.Block[V]
	lo  int
}

// windowSlack bounds the garbage the window tolerates before a full rebuild:
// once the unconsumed suffix exceeds this, most of it is dead or out of
// range (the live in-bound candidates number at most k+1) and the rebuild is
// cheaper than draw-time trimming of the accumulated entries.
func windowSlack(k int) int { return 2*(k+1) + 64 }

// sync brings the window up to date with array a at generation gen. When
// full is false it repairs incrementally: new blocks contribute their whole
// pivot range, known blocks only the extension below their low-water mark.
// A full build (forced, first use, or slack exceeded) resets and
// materializes every pivot range. It returns the number of entries
// materialized and whether a full build ran.
func (w *candWindow[V]) sync(a *BlockArray[V], gen uint64, localID int64, full bool) (int, bool) {
	if !full {
		full = len(w.known) == 0 || len(w.items)-w.pos > windowSlack(a.k)
	}
	if full {
		w.items = w.items[:0]
		w.pos = 0
		w.known = w.known[:0]
		w.dirty = false
	}
	mat := 0
	nk := w.scratch[:0]
	w.local = w.local[:0]
	for i, b := range a.blocks {
		f := b.Filled()
		p := a.pivots[i]
		if p > f {
			p = f
		}
		// hi is the exclusive end of the range still to materialize: the
		// whole clamped pivot range for unseen blocks, only [p, lo) for
		// blocks already materialized down to lo.
		lo, hi := p, f
		for _, src := range w.known {
			if src.blk == b {
				if src.lo < lo {
					lo = src.lo
				}
				if src.lo < hi {
					hi = src.lo
				}
				break
			}
		}
		for j := p; j < hi; j++ {
			it := b.Item(j)
			ver := it.Version()
			if ver&1 != 0 {
				continue
			}
			w.items = append(w.items, item.Snap[V]{It: it, Ver: ver, Key: it.Key()})
			mat++
		}
		nk = append(nk, winSrc[V]{blk: b, lo: lo})
		if localID >= 0 && b.Bloom().MayContain(uint64(localID)) {
			w.local = append(w.local, b)
		}
	}
	w.scratch = w.known[:0]
	w.known = nk
	w.snap, w.gen = a, gen
	w.bound = a.pivotKey
	if !full {
		// Entries whose key now exceeds the (possibly lowered) bound are
		// stranded until a rebuild; be conservative and mark the window.
		w.dirty = true
	}
	return mat, full
}

// next draws one valid candidate uniformly at random from the unconsumed
// entries (an on-demand Fisher–Yates step: swap the drawn entry to pos) and
// returns it without consuming it — if the caller loses the take race, the
// next draw revalidates it via its version. Invalid entries encountered are
// compacted away. ok is false when no valid entry remains.
func (w *candWindow[V]) next(rng *xrand.Source) (item.Snap[V], bool) {
	for w.pos < len(w.items) {
		j := w.pos
		if n := len(w.items) - w.pos; n > 1 {
			j += rng.Intn(n)
		}
		e := w.items[j]
		w.items[j] = w.items[w.pos]
		w.items[w.pos] = e
		if e.It.Version() == e.Ver {
			if e.Key <= w.bound {
				return e, true
			}
			// Live but above the current bound: stranded until rebuild.
			w.dirty = true
		}
		w.pos++
	}
	return item.Snap[V]{}, false
}

// consume advances past the entry next just returned, removing it from the
// draw pool. Used by the deletion-buffer fill, which claims entries later
// (by version) rather than immediately; the window marks itself dirty since
// the entry may never be taken and must then be recoverable by rebuild.
func (w *candWindow[V]) consume() {
	w.pos++
	w.dirty = true
}

// localOverlay applies local ordering on top of the drawn candidate: the
// current minima of all Bloom-matching blocks compete with cand and the
// smaller key wins, as in the paper's per-call find_min scan. Each block's
// logically deleted tail is trimmed in place first (the paper's benign
// only-shrinking race on filled) — otherwise the item the caller took one
// call ago would be handed back as a dead candidate and trigger a full
// consolidation per delete. The returned snap may reference a logically
// deleted item under a race (odd Ver) — the caller treats that as the
// consolidate signal, because the block's true live minimum may still
// undercut the candidate.
func (w *candWindow[V]) localOverlay(cand item.Snap[V]) item.Snap[V] {
	for _, b := range w.local {
		if b.ShrinkInPlace() == 0 {
			continue
		}
		it := b.Min()
		if it == nil {
			continue
		}
		if k := it.Key(); k < cand.Key {
			cand = item.Snap[V]{It: it, Ver: it.Version(), Key: k}
		}
	}
	return cand
}

// fillLocal collects the room globally-smallest live keys across the
// caller's Bloom-matching blocks — a k-way ascending merge of the blocks'
// live prefixes, none above capKey — for a deletion buffer, and returns the
// guard: a key lower-bounding every live key of those blocks that was NOT
// collected (^0 when everything was). Ascending buffered pops at or below
// min(capKey, guard) can never skip one of the owner's smaller
// shared-resident keys: any such key was collected into the same buffer and
// sorts first. This is what lets the buffer hold several own-block
// candidates at once, where the draw path's overlay bound admits only the
// single current minimum. The merge matters: filling block-by-block lets
// one block exhaust room with keys that a later block's minimum then cuts
// at the guard, shrinking the effective fill to a handful of entries.
// Entries are not consumed from the window; the version check at pop time
// discards the duplicates.
func (w *candWindow[V]) fillLocal(dst []item.Snap[V], room int, capKey uint64) ([]item.Snap[V], uint64) {
	guard := ^uint64(0)
	if len(w.local) == 0 || room <= 0 {
		return dst, guard
	}
	// Blocks are sorted descending, so walking j downward yields ascending
	// keys; cur[i] is block i's smallest uncollected index (-1 = exhausted).
	// Each block's head candidate (index, key, version) is cached so a merge
	// pick costs len(local) integer compares plus one head reload, not a
	// rescan of every block's atomics. advance skips dead entries and folds
	// keys beyond capKey into the guard (taken entries below j lower-bound
	// the live ones above, so such a key bounds the whole uncollected rest).
	cur, keys, vers := w.lcur[:0], w.lkey[:0], w.lver[:0]
	advance := func(b *block.Block[V], j int) (int, uint64, uint64) {
		for j >= 0 {
			it := b.Item(j)
			ver := it.Version()
			if ver&1 == 0 {
				k := it.Key()
				if k > capKey {
					if k < guard {
						guard = k
					}
					break
				}
				return j, k, ver
			}
			j--
		}
		return -1, 0, 0
	}
	for _, b := range w.local {
		j, k, v := advance(b, b.ShrinkInPlace()-1)
		cur, keys, vers = append(cur, j), append(keys, k), append(vers, v)
	}
	w.lcur, w.lkey, w.lver = cur, keys, vers
	for room > 0 {
		best := -1
		var bestKey uint64
		for i, k := range keys {
			if cur[i] >= 0 && (best < 0 || k < bestKey) {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			return dst, guard
		}
		b := w.local[best]
		dst = append(dst, item.Snap[V]{It: b.Item(cur[best]), Ver: vers[best], Key: bestKey})
		room--
		cur[best], keys[best], vers[best] = advance(b, cur[best]-1)
	}
	// room exhausted: the smallest uncollected live key caps the guard.
	for i, k := range keys {
		if cur[i] >= 0 && k < guard {
			guard = k
		}
	}
	return dst, guard
}

// overlayBound returns a key that lower-bounds the live minimum of every
// Bloom-matching block: candidates at or below it cannot violate local
// ordering. Taken block minima are handled conservatively (their key still
// lower-bounds the block's live minimum, keys being sorted). ^0 when no
// local blocks exist.
func (w *candWindow[V]) overlayBound() uint64 {
	ov := ^uint64(0)
	for _, b := range w.local {
		if b.ShrinkInPlace() == 0 {
			continue
		}
		it := b.Min()
		if it == nil {
			continue
		}
		if k := it.Key(); k < ov {
			ov = k
		}
	}
	return ov
}

// LiveCount scans all blocks for live items (tests and diagnostics only).
func (a *BlockArray[V]) LiveCount() int {
	n := 0
	for _, b := range a.blocks {
		n += b.LiveCount()
	}
	return n
}

// CheckInvariants validates structure for tests: strictly decreasing levels,
// sorted blocks, pivot offsets within bounds.
func (a *BlockArray[V]) CheckInvariants() bool {
	prev := block.MaxLevel + 2
	for i, b := range a.blocks {
		if b == nil || b.Empty() {
			return false
		}
		if b.Level() >= prev {
			return false
		}
		if !b.SortedDesc() {
			return false
		}
		if i < len(a.pivots) && a.pivots[i] < 0 {
			return false
		}
		prev = b.Level()
	}
	return true
}
