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
// thread constructing it (Append and the copy and merge fills). Once published — stored into a
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
	// in [0, refHi). References are acquired once per lineage: AcquireRefs
	// walks the occupied slots (the insert-time level-0 block, spy copies,
	// plain copies entering the shared k-LSM) — and the transfer fills
	// (MergeTransferIn, ShrinkTransferIn, CopyTransferIn) move references
	// from their donors to the result instead of re-acquiring, so the
	// counts never move while an item survives generation churn. Every
	// other reference a donor held — slots the fill skipped (taken or
	// dropped items) and the donor's trimmed tail — goes to the caller's
	// obligation list, which the caller releases once the donors are
	// unreachable. A donated block's references have moved to a successor;
	// its release is a no-op. A block published in the shared k-LSM has
	// its bookkeeping final before publication, written again only once
	// the block is unreachable: other cursors read it (Relinquish). A
	// DistLSM owner may mark its own published blocks donated before it
	// unlinks them, since only its own pool reads the mark.
	reffed  bool
	donated bool
	refHi   int64
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
		f = b.appendAt(f, it, nil, nil)
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

// Donate marks b's references as moved to a transfer successor, so its
// release (Pool.Put, Pool.Retire) releases nothing. Only the party that
// decides b's fate may call it: a definitive transfer's owner (the
// DistLSM's single-writer paths), or whoever holds b privately — including
// a speculative result whose attempt failed, whose references never left
// its donors.
func (b *Block[V]) Donate() { b.donated = true }

// Relinquish appends the references b holds beyond slot from — the slots a
// transfer fill that read b's first from slots did not take over — to
// owed. b must hold references; it is only read, so a published donor stays
// untouched.
func (b *Block[V]) Relinquish(from int, owed *[]*item.Item[V]) {
	if !b.reffed || b.donated {
		panic("block: transfer from a block that owns no references")
	}
	if int64(from) < b.refHi {
		*owed = append(*owed, b.items[from:b.refHi]...)
	}
}

// Disown appends every reference b holds to owed and leaves b owning none,
// so its next AcquireRefs takes fresh ones. The DistLSM disowns an overflow
// block before handing it to the shared k-LSM: its own references then
// retire with the blocks they came from, after the stores that unlink them.
func (b *Block[V]) Disown(owed *[]*item.Item[V]) {
	b.Relinquish(0, owed)
	b.reffed, b.refHi = false, 0
}

// commitTransfer records that b owns one reference per occupied slot, all
// transferred from its donors.
func (b *Block[V]) commitTransfer() {
	b.reffed = true
	b.refHi = b.filled.Load()
}

// appendAt is the bulk-copy fast path of Append: the caller owns b (still
// private), tracks the filled count in f, and stores it once when the whole
// copy or merge is done — turning two atomic filled operations per item
// into one per block. Returns the new count. A non-nil owed (transfer
// fills) collects the skipped items: each carries a donor reference the
// transfer's caller is now responsible for releasing.
func (b *Block[V]) appendAt(f int64, it *item.Item[V], drop DropFunc[V], owed *[]*item.Item[V]) int64 {
	if it.Taken() {
		if owed != nil {
			*owed = append(*owed, it)
		}
		return f
	}
	if drop != nil && drop(it.Key(), it.Value()) {
		// Claim the item so copies of it in other blocks (stale merges,
		// spied blocks) cannot resurrect it.
		it.TryTake()
		if owed != nil {
			*owed = append(*owed, it)
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
		f = nb.appendAt(f, it, drop, nil)
	}
	nb.filled.Store(f)
	return nb
}

// CopyTransferIn is CopyDropIn with §4.4 reference transfer: the copy
// takes over b's references for the slots it copies, and the rest — the
// skipped items and b's trimmed tail — go to owed. b is only read (see
// Relinquish); b must hold references.
func (b *Block[V]) CopyTransferIn(p *Pool[V], level int, drop DropFunc[V], owed *[]*item.Item[V]) *Block[V] {
	nb := p.Get(level)
	nb.filter = b.filter
	src := b.Items()
	f := nb.filled.Load()
	for _, it := range src {
		f = nb.appendAt(f, it, drop, owed)
	}
	nb.filled.Store(f)
	b.Relinquish(len(src), owed)
	nb.commitTransfer()
	return nb
}

// mergeSlices runs the two-way merge loop over item slices the caller
// snapshotted (one Items() read each, so transfer bookkeeping agrees with
// exactly what the fill saw).
func (dst *Block[V]) mergeSlices(a, b []*item.Item[V], drop DropFunc[V], owed *[]*item.Item[V]) {
	f := dst.filled.Load()
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// >= keeps the merge stable and the order non-increasing.
		if a[i].Key() >= b[j].Key() {
			f = dst.appendAt(f, a[i], drop, owed)
			i++
		} else {
			f = dst.appendAt(f, b[j], drop, owed)
			j++
		}
	}
	for ; i < len(a); i++ {
		f = dst.appendAt(f, a[i], drop, owed)
	}
	for ; j < len(b); j++ {
		f = dst.appendAt(f, b[j], drop, owed)
	}
	dst.filled.Store(f)
}

// MergeTransferIn draws a block one level above the larger input from p,
// fills it with the two-way merge of b1 and b2 in decreasing key order —
// filtering logically deleted and dropped items and uniting the Bloom
// filters — and shrinks it to the smallest fitting level, recycling
// intermediates: the "merge then shrink" step of every LSM insert path.
//
// It moves references by §4.4 transfer: instead of the merged block
// re-acquiring a reference per item and the donors releasing theirs later
// (two atomic RMWs per item per generation), ownership of the donors'
// references moves to the result — zero refcount traffic for surviving
// items. The donors' other references (filtered items, trimmed
// tails) are appended to owed, which the caller must release once the
// donors are unreachable. Both inputs must hold references. They are only
// read: a definitive caller (the DistLSM's single-writer paths) marks them
// with Donate before retiring them, while the shared k-LSM's speculative
// attempts leave published donors untouched until a CAS decides.
func MergeTransferIn[V any](p *Pool[V], b1, b2 *Block[V], drop DropFunc[V], owed *[]*item.Item[V]) *Block[V] {
	level := b1.level
	if b2.level > level {
		level = b2.level
	}
	dst := p.Get(level + 1)
	dst.filter = b1.filter.Union(b2.filter)
	a, bb := b1.Items(), b2.Items()
	dst.mergeSlices(a, bb, drop, owed)
	b1.Relinquish(len(a), owed)
	b2.Relinquish(len(bb), owed)
	dst.commitTransfer()
	s := dst.ShrinkTransferIn(p, owed)
	if s != dst {
		dst.Donate() // its references moved to s: private shell, recycle
		p.Put(dst)
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
// copy takes over the original's references (CopyTransferIn, the trimmed
// tail going to owed) instead of re-acquiring them, and b is only read,
// like MergeTransferIn's donors. In-place trims transfer nothing — the
// references stay with the block, whose release covers [0, refHi)
// regardless of filled. b must hold references.
func (b *Block[V]) ShrinkTransferIn(p *Pool[V], owed *[]*item.Item[V]) *Block[V] {
	_, l := b.trimFit()
	if l < b.level {
		c := b.CopyTransferIn(p, l, nil, owed)
		s := c.ShrinkTransferIn(p, owed)
		if s != c {
			c.Donate() // its references moved to s: private shell, recycle
			p.Put(c)
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
