package block

import (
	"testing"

	"klsm/internal/item"
)

// TestLevelForCountOverflowRegression covers the shift-overflow bug: for
// n > 2^62 the old loop's 1<<level overflowed int (Go defines the over-wide
// shift as 0) and never terminated. Out-of-range counts must panic instead.
func TestLevelForCountOverflowRegression(t *testing.T) {
	// The largest representable count still maps to MaxLevel.
	if got := LevelForCount(1 << uint(MaxLevel)); got != MaxLevel {
		t.Fatalf("LevelForCount(2^%d) = %d, want %d", MaxLevel, got, MaxLevel)
	}
	for _, n := range []int{1<<uint(MaxLevel) + 1, 1 << 62, int(^uint(0) >> 1), -1} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("LevelForCount(%d) did not panic", n)
				}
			}()
			LevelForCount(n)
		}()
	}
}

func fillBlock(level, n int) *Block[int] {
	b := New[int](level)
	for i := n; i > 0; i-- {
		b.Append(item.New(uint64(i), i))
	}
	return b
}

func TestPoolGetPutReuse(t *testing.T) {
	p := NewPool(nil, item.NewPool[int]())
	b := p.Get(3)
	if b.Level() != 3 || b.Capacity() != 8 || !b.Empty() {
		t.Fatalf("bad pooled block: level=%d cap=%d", b.Level(), b.Capacity())
	}
	b.Append(item.New(1, 1))
	b.AddOwner(7)
	p.Put(b)
	got := p.Get(3)
	if got != b {
		t.Fatal("pool did not recycle the block")
	}
	if !got.Empty() || got.Bloom() != 0 {
		t.Fatal("recycled block not reset")
	}
	if got.items[0] != nil {
		t.Fatal("recycled block still references items")
	}
	st := p.Stats()
	if st.Hits != 1 || st.Puts != 1 || st.Gets != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPoolLevelAndCapBounds(t *testing.T) {
	p := NewPool(nil, item.NewPool[int]())
	// Over-level blocks are never pooled.
	big := p.Get(maxPoolLevel + 1)
	p.Put(big)
	if p.Get(maxPoolLevel+1) == big {
		t.Fatal("pooled a block above maxPoolLevel")
	}
	// Free list caps drop the excess.
	var blocks []*Block[int]
	for i := 0; i < freeCap+2; i++ {
		blocks = append(blocks, New[int](5))
	}
	for _, b := range blocks {
		p.Put(b)
	}
	if got := len(p.free[5]); got != freeCap {
		t.Fatalf("free list len = %d, want cap %d", got, freeCap)
	}
	if p.Stats().Dropped < 2 {
		t.Fatalf("dropped = %d, want >= 2", p.Stats().Dropped)
	}
}

// TestRetireRespectsGuard is the §4.4 reuse contract: a retired published
// block must not re-enter circulation while a reader that might hold its
// pointer is active.
func TestRetireRespectsGuard(t *testing.T) {
	var g Guard
	p := NewPool(&g, item.NewPool[int]())

	g.Enter() // a spy is live
	b := fillBlock(2, 3)
	p.Retire(b)
	if got := p.Get(2); got == b {
		t.Fatal("retired block recycled while a reader was active")
	}

	g.Exit() // quiescent: limbo may drain
	if got := p.Get(2); got != b {
		t.Fatal("retired block not recycled after quiescence")
	}
}

func TestRetireImmediateWhenQuiescent(t *testing.T) {
	var g Guard
	p := NewPool(&g, item.NewPool[int]())
	b := fillBlock(1, 1)
	p.Retire(b)
	if got := p.Get(1); got != b {
		t.Fatal("quiescent retire did not recycle immediately")
	}
	// A nil guard (single-threaded pools) is always quiescent.
	p2 := NewPool(nil, item.NewPool[int]())
	b2 := fillBlock(1, 1)
	p2.Retire(b2)
	if got := p2.Get(1); got != b2 {
		t.Fatal("nil-guard retire did not recycle immediately")
	}
}

func TestLimboCapDropsToGC(t *testing.T) {
	var g Guard
	p := NewPool(&g, item.NewPool[int]())
	g.Enter()
	for i := 0; i < limboCap+5; i++ {
		p.Retire(New[int](1))
	}
	if len(p.limbo) != limboCap {
		t.Fatalf("limbo len = %d, want %d", len(p.limbo), limboCap)
	}
	g.Exit()
}

// TestMergeInRecyclesIntermediates checks that the pooled merge/shrink path
// (MergeTransferIn) produces the right result and feeds its private
// intermediates back to the pool.
func TestMergeInRecyclesIntermediates(t *testing.T) {
	p := NewPool(nil, item.NewPool[int]())
	// Two level-2 blocks with one live item each: the level-3 merge output
	// shrinks to level 1, so the merge's own dst is recycled internally.
	mk := func(key uint64) *Block[int] {
		b := p.Get(2)
		dead := item.New[int](key+100, 0)
		dead.TryTake()
		b.Append(item.New(key, int(key)))
		b.Append(dead)
		b.AcquireRefs()
		return b
	}
	b1, b2 := mk(50), mk(40)
	var owed []*item.Item[int]
	m := MergeTransferIn(p, b1, b2, nil, &owed)
	if m.Level() != 1 || m.Filled() != 2 || !m.SortedDesc() {
		t.Fatalf("merge result: level=%d filled=%d", m.Level(), m.Filled())
	}
	if m.Item(0).Key() != 50 || m.Item(1).Key() != 40 {
		t.Fatal("merge order wrong")
	}
	if p.Stats().Puts == 0 {
		t.Fatal("the merge recycled no intermediate")
	}
	// The pooled path must not allocate once the free lists are warm. The
	// inputs' references moved to the result, as in the DistLSM.
	b1.Donate()
	b2.Donate()
	p.Put(b1)
	p.Put(b2)
	p.Put(m)
	its := []*item.Item[int]{item.New(9, 9), item.New(8, 8)}
	allocs := testing.AllocsPerRun(50, func() {
		x, y := p.Get(0), p.Get(0)
		x.Append(its[0])
		y.Append(its[1])
		x.AcquireRefs()
		y.AcquireRefs()
		z := MergeTransferIn(p, x, y, nil, &owed)
		x.Donate()
		y.Donate()
		p.Put(x)
		p.Put(y)
		z.Donate()
		p.Put(z)
	})
	if allocs > 0 {
		t.Fatalf("warm pooled merge allocates %.2f per op", allocs)
	}
}

func TestShrinkInRetiresCopies(t *testing.T) {
	p := NewPool(nil, item.NewPool[int]())
	// Level-4 block with 2 live items buried under a taken tail: shrink
	// copies down to level 1 via intermediate levels.
	b := p.Get(4)
	for i := 10; i > 2; i-- {
		it := item.New(uint64(i), i)
		b.Append(it)
		if i <= 8 {
			it.TryTake()
		}
	}
	s := b.ShrinkIn(p)
	if s.Level() != 1 || s.Filled() != 2 {
		t.Fatalf("shrink result: level=%d filled=%d", s.Level(), s.Filled())
	}
	if s == b {
		t.Fatal("expected a compacted copy")
	}
}
