// Package lsm implements the sequential log-structured merge-tree priority
// queue of paper §3.
//
// The queue maintains a logarithmic number of sorted blocks with strictly
// decreasing levels (largest first). At most one block per level may exist;
// inserts create a level-0 block and merge from the small end until the
// invariant holds again, and delete-min shrinks blocks and re-merges as
// needed, giving O(log n) amortized operations.
//
// This package is single-threaded. It serves three roles: the conceptual
// basis the concurrent variants build on, the thread-local queue semantics
// reference in tests, and a fast sequential baseline.
package lsm

import (
	"klsm/internal/block"
	"klsm/internal/item"
)

// LSM is a sequential log-structured merge-tree priority queue. The zero
// value is not usable; call New.
type LSM[V any] struct {
	// blocks is ordered by strictly decreasing level: blocks[0] is the
	// largest run, blocks[len-1] the smallest.
	blocks []*block.Block[V]
	drop   block.DropFunc[V]
	// live tracks the exact number of live items: inserts minus delete-mins
	// minus items removed by the drop callback during maintenance.
	live int

	// pool/items are the §4.4 recycling free lists. The sequential LSM is
	// the one structure where the full scheme applies without reference
	// counts: with a single thread and no spies, every item lives in
	// exactly one reachable block, so a block is recyclable the moment it
	// is merged away and an item the moment DeleteMin trims it — no guard
	// needed (a nil-guard pool treats Retire as an immediate Put). Blocks
	// always recycle; items only on a NewPooled LSM (items is nil on New).
	pool  *block.Pool[V]
	items *item.Pool[V]
	// scratch backs shrinkAt's suffix rebuild without a per-call allocation.
	scratch []*block.Block[V]
}

// New returns an empty sequential LSM priority queue. Its blocks recycle
// through a private free list; its items are plain allocations it never
// reuses, so InsertItem is allowed.
func New[V any]() *LSM[V] {
	return &LSM[V]{pool: block.NewPool[V](nil, item.NewPool[V]())}
}

// NewPooled returns an empty sequential LSM that recycles blocks and items
// through §4.4-style free lists. Items returned by DeleteMin are reused by
// later Inserts, so callers must not retain references into the queue across
// operations (InsertItem-provided items are exempt: the LSM never recycles
// items it did not allocate... it cannot tell them apart, so with pooling
// enabled InsertItem is disallowed and panics).
func NewPooled[V any]() *LSM[V] {
	items := item.NewPool[V]()
	return &LSM[V]{pool: block.NewPool[V](nil, items), items: items}
}

// SetDrop installs the lazy-deletion callback (paper §4.5). Items for which
// drop returns true are discarded whenever maintenance copies or merges
// blocks. Pass nil to disable.
func (l *LSM[V]) SetDrop(drop block.DropFunc[V]) { l.drop = drop }

// Insert adds key with its payload.
func (l *LSM[V]) Insert(key uint64, value V) {
	if l.items == nil {
		l.insertItem(item.New(key, value))
		return
	}
	l.insertItem(l.items.Get(key, value))
}

// InsertItem adds a pre-wrapped item (paper Figure 2: create a level-0 block,
// then merge from the tail until no two blocks share a level). Disallowed on
// a pooled LSM: the queue would recycle the item on DeleteMin and clobber
// the caller's reference.
func (l *LSM[V]) InsertItem(it *item.Item[V]) {
	if l.items != nil {
		panic("lsm: InsertItem on a pooled LSM (the item would be recycled)")
	}
	l.insertItem(it)
}

func (l *LSM[V]) insertItem(it *item.Item[V]) {
	nb := l.pool.Get(0)
	nb.Append(it)
	if nb.Empty() {
		l.pool.Put(nb)
		return // item was already taken
	}
	l.live++
	l.pushMerging(nb)
}

// pushMerging appends nb (the smallest run) and restores the strictly
// decreasing level invariant by merging from the tail. When a drop callback
// is installed it is wrapped to keep the live count exact; without one,
// merges cannot change the live count (they only filter items that were
// already logically deleted and accounted for).
func (l *LSM[V]) pushMerging(nb *block.Block[V]) {
	drop := l.drop
	if drop != nil {
		inner := l.drop
		drop = func(key uint64, value V) bool {
			if inner(key, value) {
				l.live--
				return true
			}
			return false
		}
	}
	i := len(l.blocks)
	for i > 0 && l.blocks[i-1].Level() <= nb.Level() {
		merged := block.MergeIn(l.pool, l.blocks[i-1], nb, drop)
		// Single-threaded: both inputs are unreachable the moment the merge
		// replaces them, so they recycle immediately (§4.4).
		l.pool.Put(l.blocks[i-1])
		l.pool.Put(nb)
		nb = merged
		i--
	}
	l.blocks = append(l.blocks[:i], nb)
	if nb.Empty() {
		l.blocks = l.blocks[:i]
		l.pool.Put(nb)
	}
}

// PeekMin returns the live minimum item without removing it, or nil if the
// queue is empty.
func (l *LSM[V]) PeekMin() *item.Item[V] {
	it, _ := l.minItem()
	return it
}

// minItem locates the block holding the live minimum.
func (l *LSM[V]) minItem() (*item.Item[V], int) {
	var best *item.Item[V]
	bestIdx := -1
	for i, b := range l.blocks {
		it, _ := b.LiveMin()
		if it == nil {
			continue
		}
		if best == nil || it.Key() < best.Key() {
			best, bestIdx = it, i
		}
	}
	return best, bestIdx
}

// DeleteMin removes and returns the minimum key and its payload. ok is false
// if the queue is empty. Items the drop callback reports stale are discarded
// here as well as during merges, so DeleteMin never returns a dropped item.
func (l *LSM[V]) DeleteMin() (key uint64, value V, ok bool) {
	for {
		it, idx := l.minItem()
		if it == nil {
			var zero V
			return 0, zero, false
		}
		it.TryTake()
		l.live--
		l.shrinkAt(idx)
		key, value = it.Key(), it.Value()
		// After shrinkAt the taken item has been trimmed out of the only
		// block that referenced it (it was that block's live tail minimum),
		// so it is unreachable and recycles (§4.4). Pooled LSMs allocate
		// every item themselves (InsertItem is disallowed), so the pointer
		// is exclusively ours.
		if l.items != nil {
			l.items.Put(it)
		}
		if l.drop != nil && l.drop(key, value) {
			continue
		}
		return key, value, true
	}
}

// shrinkAt shrinks the block at idx after a removal and restores the level
// invariant by re-merging the suffix if the block's level dropped.
func (l *LSM[V]) shrinkAt(idx int) {
	b := l.blocks[idx]
	s := b.ShrinkIn(l.pool)
	if s == b && !s.Empty() {
		return // level unchanged, invariant intact
	}
	if s != b {
		l.pool.Put(b) // replaced by a compacted copy: b is unreachable
	}
	// The block at idx shrank below its old level: it may now collide with
	// smaller blocks to its right. Rebuild the suffix via the same merging
	// push used by insert.
	suffix := append(l.scratch[:0], l.blocks[idx+1:]...)
	l.blocks = l.blocks[:idx]
	if !s.Empty() {
		l.pushMerging(s)
	} else {
		l.pool.Put(s)
	}
	for _, sb := range suffix {
		if !sb.Empty() {
			l.pushMerging(sb)
		}
	}
	clear(suffix)
	l.scratch = suffix[:0]
}

// Len returns the exact number of live items.
func (l *LSM[V]) Len() int { return l.live }

// Empty reports whether no live item remains.
func (l *LSM[V]) Empty() bool { return l.live == 0 }

// Blocks returns the current number of blocks; exposed for tests asserting
// the logarithmic-structure invariant.
func (l *LSM[V]) Blocks() int { return len(l.blocks) }

// CheckInvariants verifies the structural invariants (strictly decreasing
// levels, per-block descending order, level occupancy) and returns false on
// the first violation. Used by tests and the property suite.
func (l *LSM[V]) CheckInvariants() bool {
	for i, b := range l.blocks {
		if i > 0 && l.blocks[i-1].Level() <= b.Level() {
			return false
		}
		if !b.SortedDesc() {
			return false
		}
		if b.Filled() > b.Capacity() {
			return false
		}
		if b.Empty() {
			return false
		}
	}
	return true
}
