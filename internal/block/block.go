// Package block implements the sorted storage unit of all LSM variants
// (paper §4, Listing 1).
//
// A Block of level l holds up to 2^l pointers to Items in *decreasing* key
// order, so the minimum lives at items[filled-1]: delete-min shrinks blocks
// from the tail, and the paper's shrink/find-min logic (scan the tail for
// logically deleted items, fall back to items[filled-1]) depends on this
// orientation.
//
// Concurrency contract: a Block is mutable only while it is private to the
// thread constructing it (Append/MergeInto). Once published — stored into a
// DistLSM slot or referenced from a shared BlockArray — its item slots are
// immutable; only the filled counter may still shrink (ShrinkInPlace), which
// is why filled is atomic. Items beyond filled are intentionally not nil'ed:
// a concurrent spy may have read a larger filled moments earlier and must
// still find valid (if logically deleted) pointers there. The garbage-
// collection delay this causes is bounded, because every copy or merge drops
// taken items.
//
// Note on the paper's Listing 1: its shrink loop reads
// `while (f > 0 && !items[f-1]->flag) --f`, which would discard *live* items;
// the surrounding prose ("scans the end of the block for logically deleted
// items") makes clear the negation is a typo. We implement the prose.
package block

import (
	"sync/atomic"

	"klsm/internal/bloom"
	"klsm/internal/item"
)

// MaxLevel bounds block levels; a level-48 block would hold 2^48 items, far
// beyond addressable workloads, so fixed-size arrays of block pointers in the
// LSM structures use MaxLevel+1 slots.
const MaxLevel = 48

// DropFunc is an application callback for the lazy deletion extension
// (paper §4.5): during copies and merges, items for which drop returns true
// are treated like logically deleted items and not carried over. SSSP uses
// this to discard queue entries whose distance label is already stale.
type DropFunc[V any] func(key uint64, value V) bool

// Block is a sorted run of item pointers. See the package comment for the
// mutability contract.
type Block[V any] struct {
	level  int
	filled atomic.Int64
	items  []*item.Item[V]
	filter bloom.Filter
	// §4.4 reference counts: a reffed block holds one reference per slot
	// in [0, refHi) plus one per entry of drops. References are acquired
	// once per lineage: AcquireRefs walks the occupied slots (the
	// insert-time level-0 block, spy copies, blocks entering the shared
	// k-LSM) — and the owner-local transfer merges (MergeTransferIn,
	// ShrinkTransferIn) move references from their donors to the merged
	// block instead of re-acquiring, so the counts never move while an
	// item survives generation churn. Items the transfer fill skips
	// (logically deleted or dropped) land in drops, carrying their
	// donor's reference until the owner hands them to the pool's
	// quiescence-gated item limbo. A donated block's references have
	// moved to its successor; its release is a no-op. Private merge
	// intermediates never hold references.
	reffed  bool
	donated bool
	refHi   int64
	drops   []*item.Item[V]
}

// New returns an empty block of the given level (capacity 1<<level).
func New[V any](level int) *Block[V] {
	if level < 0 || level > MaxLevel {
		panic("block: level out of range")
	}
	return &Block[V]{
		level: level,
		items: make([]*item.Item[V], 1<<uint(level)),
	}
}

// LevelForCount returns the smallest level whose capacity holds n items.
// Counts beyond the MaxLevel capacity (or negative ones) panic: the shift in
// the naive loop would overflow int for n > 2^62 — Go defines the over-wide
// shift as 0 — and never terminate.
func LevelForCount(n int) int {
	if n < 0 || n > 1<<uint(MaxLevel) {
		panic("block: item count out of range")
	}
	level := 0
	for 1<<uint(level) < n {
		level++
	}
	return level
}

// Level returns the block's level; capacity is 1<<Level().
func (b *Block[V]) Level() int { return b.level }

// Capacity returns the item slot count.
func (b *Block[V]) Capacity() int { return len(b.items) }

// Filled returns the current number of occupied slots (live or logically
// deleted). Safe to call concurrently with ShrinkInPlace.
func (b *Block[V]) Filled() int { return int(b.filled.Load()) }

// Item returns the item in slot i. i must be < the value Filled returned to
// this caller (or a value it returned earlier; slots are never reused).
func (b *Block[V]) Item(i int) *item.Item[V] { return b.items[i] }

// Items returns the occupied prefix of the slot array as a read-only view.
func (b *Block[V]) Items() []*item.Item[V] { return b.items[:b.filled.Load()] }

// Bloom returns the filter of handle IDs that contributed items to b.
func (b *Block[V]) Bloom() bloom.Filter { return b.filter }

// AddOwner records a contributing handle ID in the block's Bloom filter.
// Must only be called while the block is private.
func (b *Block[V]) AddOwner(id uint64) { b.filter = b.filter.Add(id) }

// SetBloom overwrites the filter. Must only be called while private.
func (b *Block[V]) SetBloom(f bloom.Filter) { b.filter = f }

// Append adds it to the end of the block unless it has been logically
// deleted (Listing 1). The caller is responsible for preserving decreasing
// key order and for only appending to private blocks.
func (b *Block[V]) Append(it *item.Item[V]) {
	if it.Taken() {
		return
	}
	f := b.filled.Load()
	b.items[f] = it
	b.filled.Store(f + 1)
}

// AppendSorted bulk-appends its — already in non-increasing key order — to a
// private block, skipping logically deleted items, with a single store of the
// filled counter (the batch-insert fill path: one atomic store per block
// instead of two per item). The caller is responsible for order and capacity,
// exactly as with Append.
func (b *Block[V]) AppendSorted(its []*item.Item[V]) {
	f := b.filled.Load()
	for _, it := range its {
		f = b.appendAt(f, it, nil, false)
	}
	b.filled.Store(f)
}

// AcquireRefs takes one reference per occupied slot on behalf of this block
// (§4.4 proper) — the once-per-lineage acquisition used for level-0 insert
// blocks, spy copies, and blocks entering the shared k-LSM. The owner must
// call it before the block (or a transfer successor of it) is published,
// and always before any predecessor holding the same items is unlinked or
// recycled, so a live item's count never dips to zero in between. No-op if
// references are already held (a block that stays reachable across several
// published snapshots holds exactly one reference per slot, total).
func (b *Block[V]) AcquireRefs() {
	if b.reffed {
		return
	}
	f := b.filled.Load()
	for _, it := range b.items[:f] {
		it.Ref()
	}
	b.reffed = true
	b.refHi = f
}

// HoldsRefs reports whether the block currently owns item references
// (acquired or transferred, and not yet donated), for tests.
func (b *Block[V]) HoldsRefs() bool { return b.reffed && !b.donated }

// Donated reports whether the block's references were transferred to a
// successor, for tests.
func (b *Block[V]) Donated() bool { return b.donated }

// DropsLen returns the number of dropped-item references the block still
// carries, for tests.
func (b *Block[V]) DropsLen() int { return len(b.drops) }

// TakeDropsInto appends the block's dropped-item references to dst and
// clears them; ownership of the obligations moves to the caller, which must
// hand them to a quiescence-gated release (Pool.RetireItems).
func (b *Block[V]) TakeDropsInto(dst []*item.Item[V]) []*item.Item[V] {
	dst = append(dst, b.drops...)
	b.clearDrops()
	return dst
}

// clearDrops empties the drops list, keeping its capacity.
func (b *Block[V]) clearDrops() {
	clear(b.drops)
	b.drops = b.drops[:0]
}

// resetReclaim clears all §4.4 bookkeeping for a block shell about to be
// recycled or dropped.
func (b *Block[V]) resetReclaim() {
	b.reffed = false
	b.donated = false
	b.refHi = 0
	if len(b.drops) != 0 {
		b.clearDrops()
	}
}

// absorb transfers donor's item references to b (§4.4 lineage transfer):
// the live slots the fill pass just copied keep their counts untouched,
// while everything else the donor was responsible for — the slots beyond
// the fRead the fill saw (trimmed tails up to refHi) and the donor's own
// pending drops — moves to b.drops. The donor is marked donated: its
// release becomes a no-op. Owner-only, like every transfer operation.
func (b *Block[V]) absorb(donor *Block[V], fRead int64) {
	if !donor.reffed || donor.donated {
		panic("block: transfer from a block that owns no references")
	}
	donor.donated = true
	if fRead < donor.refHi {
		b.drops = append(b.drops, donor.items[fRead:donor.refHi]...)
	}
	if len(donor.drops) > 0 {
		b.drops = append(b.drops, donor.drops...)
		donor.clearDrops()
	}
}

// commitTransfer records that b now owns one reference per occupied slot
// (all transferred from its donors) plus its drops.
func (b *Block[V]) commitTransfer() {
	b.reffed = true
	b.refHi = b.filled.Load()
}

// appendAt is the bulk-copy fast path of Append: the caller owns b (still
// private), tracks the filled count in f, and stores it once when the whole
// copy or merge is done — turning two atomic filled operations per item
// into one per block. Returns the new count. With capture set (transfer
// fills), skipped items are recorded in drops: they carry a donor reference
// the successor is now responsible for releasing.
func (b *Block[V]) appendAt(f int64, it *item.Item[V], drop DropFunc[V], capture bool) int64 {
	if it.Taken() {
		if capture {
			b.drops = append(b.drops, it)
		}
		return f
	}
	if drop != nil && drop(it.Key(), it.Value()) {
		// Claim the item so copies of it in other blocks (stale merges,
		// spied blocks) cannot resurrect it.
		it.TryTake()
		if capture {
			b.drops = append(b.drops, it)
		}
		return f
	}
	b.items[f] = it
	return f + 1
}

// CopyIn returns a new private block of the given level, drawn from p,
// containing b's live items (logically deleted ones are filtered out,
// Listing 1). The Bloom filter is carried over.
func (b *Block[V]) CopyIn(p *Pool[V], level int) *Block[V] {
	return b.CopyDropIn(p, level, nil)
}

// CopyDropIn is CopyIn with the lazy-deletion callback applied.
func (b *Block[V]) CopyDropIn(p *Pool[V], level int, drop DropFunc[V]) *Block[V] {
	nb := p.Get(level)
	nb.filter = b.filter
	f := nb.filled.Load()
	for _, it := range b.Items() {
		f = nb.appendAt(f, it, drop, false)
	}
	nb.filled.Store(f)
	return nb
}

// copyTransferIn is the transfer variant of CopyIn: the copy inherits b's
// references (live slots untouched, skipped items captured in drops) and b
// is marked donated. Owner-only; b must hold references.
func (b *Block[V]) copyTransferIn(p *Pool[V], level int) *Block[V] {
	nb := p.Get(level)
	nb.filter = b.filter
	src := b.Items()
	f := nb.filled.Load()
	for _, it := range src {
		f = nb.appendAt(f, it, nil, true)
	}
	nb.filled.Store(f)
	nb.absorb(b, int64(len(src)))
	nb.commitTransfer()
	return nb
}

// MergeInto fills dst (a fresh private block) with the two-way merge of b1
// and b2 in decreasing key order, filtering logically deleted and dropped
// items and uniting the Bloom filters. dst must have capacity for
// b1.Filled()+b2.Filled() items.
func MergeInto[V any](dst, b1, b2 *Block[V], drop DropFunc[V]) {
	dst.filter = b1.filter.Union(b2.filter)
	dst.mergeSlices(b1.Items(), b2.Items(), drop, false)
}

// mergeSlices runs the two-way merge loop over item slices the caller
// snapshotted (one Items() read each, so transfer bookkeeping agrees with
// exactly what the fill saw).
func (dst *Block[V]) mergeSlices(a, b []*item.Item[V], drop DropFunc[V], capture bool) {
	f := dst.filled.Load()
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// >= keeps the merge stable and the order non-increasing.
		if a[i].Key() >= b[j].Key() {
			f = dst.appendAt(f, a[i], drop, capture)
			i++
		} else {
			f = dst.appendAt(f, b[j], drop, capture)
			j++
		}
	}
	for ; i < len(a); i++ {
		f = dst.appendAt(f, a[i], drop, capture)
	}
	for ; j < len(b); j++ {
		f = dst.appendAt(f, b[j], drop, capture)
	}
	dst.filled.Store(f)
}

// MergeIn draws a block one level above the larger input from p, merges b1
// and b2 into it, then shrinks it to the smallest fitting level, returning
// intermediates to p. This is the "merge then shrink" step shared by all
// LSM insert paths. The inputs are untouched: whether they can be recycled
// is the caller's call (it knows which ones are private).
func MergeIn[V any](p *Pool[V], b1, b2 *Block[V], drop DropFunc[V]) *Block[V] {
	level := b1.level
	if b2.level > level {
		level = b2.level
	}
	dst := p.Get(level + 1)
	MergeInto(dst, b1, b2, drop)
	s := dst.ShrinkIn(p)
	if s != dst {
		p.Put(dst) // dst never left this function: private by construction
	}
	return s
}

// MergeTransferIn is MergeIn with §4.4 reference transfer: instead of the
// merged block re-acquiring a reference per item and the donors releasing
// theirs later (two atomic RMWs per item per generation), ownership of the
// donors' references moves to the result — zero refcount traffic for
// surviving items, with filtered items captured in the result's drops list.
// Both inputs must hold references (published blocks of the owner's
// structure, or earlier transfer results); they are marked donated and must
// still be unlinked/retired by the caller as usual. Owner-only and
// definitive — use only where the merge result is guaranteed to supersede
// its inputs (the DistLSM's single-writer paths, not the shared k-LSM's
// speculative snapshots).
func MergeTransferIn[V any](p *Pool[V], b1, b2 *Block[V], drop DropFunc[V]) *Block[V] {
	level := b1.level
	if b2.level > level {
		level = b2.level
	}
	dst := p.Get(level + 1)
	dst.filter = b1.filter.Union(b2.filter)
	a, bb := b1.Items(), b2.Items()
	dst.mergeSlices(a, bb, drop, true)
	dst.absorb(b1, int64(len(a)))
	dst.absorb(b2, int64(len(bb)))
	dst.commitTransfer()
	s := dst.ShrinkTransferIn(p)
	if s != dst {
		p.Put(dst) // donated to s (or empty): private shell, recycle
	}
	return s
}

// trimFit trims the logically deleted tail (storing the lowered filled)
// and returns the new count plus the smallest level whose occupancy
// constraint it satisfies — the shared skeleton of both shrink variants.
func (b *Block[V]) trimFit() (f int64, l int) {
	f = b.filled.Load()
	for f > 0 && b.items[f-1].Taken() {
		f--
	}
	l = b.level
	for l > 0 && f <= 1<<uint(l-1) {
		l--
	}
	b.filled.Store(f)
	return f, l
}

// ShrinkIn returns a block holding b's live items at the smallest adequate
// level (Listing 1). If b already satisfies its level constraint after
// trimming the logically deleted tail, b itself is returned with filled
// updated; otherwise a compacted copy at a smaller level, drawn from p, is
// returned (intermediates go back to p). Whether b itself (when replaced)
// can be recycled is the caller's decision. Must only be called on private
// blocks (use ShrinkInPlace for published ones).
func (b *Block[V]) ShrinkIn(p *Pool[V]) *Block[V] {
	_, l := b.trimFit()
	if l < b.level {
		// Copy may clean out further items mid-array, so recurse as the
		// paper does.
		c := b.CopyIn(p, l)
		s := c.ShrinkIn(p)
		if s != c {
			p.Put(c) // c never escaped: private
		}
		return s
	}
	return b
}

// ShrinkTransferIn is ShrinkIn with §4.4 reference transfer: a compaction
// copy inherits the original's references (marking it donated) instead of
// re-acquiring them. In-place trims transfer nothing — the references stay
// with the block, whose release covers [0, refHi) regardless of filled.
// Owner-only and definitive, like MergeTransferIn; b must hold references.
func (b *Block[V]) ShrinkTransferIn(p *Pool[V]) *Block[V] {
	_, l := b.trimFit()
	if l < b.level {
		c := b.copyTransferIn(p, l)
		s := c.ShrinkTransferIn(p)
		if s != c {
			p.Put(c) // donated to s: private shell, recycle
		}
		return s
	}
	return b
}

// ShrinkInPlace trims the logically deleted tail of a possibly shared block
// by lowering filled. It never reallocates and never raises filled, so
// concurrent readers observe a monotonically shrinking, always-valid prefix.
// It returns the new filled value.
func (b *Block[V]) ShrinkInPlace() int {
	f := b.filled.Load()
	for f > 0 && b.items[f-1].Taken() {
		f--
	}
	// Another thread may have shrunk concurrently; only ever store a value
	// not larger than what we based the scan on.
	cur := b.filled.Load()
	if f < cur {
		b.filled.Store(f)
	}
	return int(f)
}

// Min returns the item in the minimum slot (items[filled-1]) without checking
// its deletion flag, or nil if the block is empty. Callers fall back to other
// candidates if the item is taken.
func (b *Block[V]) Min() *item.Item[V] {
	f := b.filled.Load()
	if f == 0 {
		return nil
	}
	return b.items[f-1]
}

// LiveMin scans from the tail past logically deleted items and returns the
// first live item and the number of deleted items skipped. It does not
// mutate the block, so it is safe on shared blocks. Returns nil if no live
// item exists.
func (b *Block[V]) LiveMin() (it *item.Item[V], skipped int) {
	f := b.filled.Load()
	for i := f - 1; i >= 0; i-- {
		if cand := b.items[i]; !cand.Taken() {
			return cand, int(f - 1 - i)
		}
	}
	return nil, int(f)
}

// LiveCount scans the whole block and counts live items. Intended for tests
// and size estimation, not hot paths.
func (b *Block[V]) LiveCount() int {
	n := 0
	for _, it := range b.Items() {
		if !it.Taken() {
			n++
		}
	}
	return n
}

// Empty reports whether the block has no occupied slots.
func (b *Block[V]) Empty() bool { return b.filled.Load() == 0 }

// Underfull reports whether the block violates its level's minimum occupancy
// (2^(l-1) < n for l > 0), indicating consolidation should shrink it.
func (b *Block[V]) Underfull() bool {
	if b.level == 0 {
		return b.filled.Load() == 0
	}
	return b.filled.Load() <= 1<<uint(b.level-1)
}

// SortedDesc reports whether the occupied prefix is in non-increasing key
// order. It exists for tests and invariant checks.
func (b *Block[V]) SortedDesc() bool {
	its := b.Items()
	for i := 1; i < len(its); i++ {
		if its[i-1].Key() < its[i].Key() {
			return false
		}
	}
	return true
}
