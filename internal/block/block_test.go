package block

import (
	"sort"
	"testing"

	"klsm/internal/item"
)

// desc builds a private block from keys, sorting them descending first.
func desc(t testing.TB, keys ...uint64) *Block[int] {
	t.Helper()
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	b := New[int](LevelForCount(len(sorted)))
	for i, k := range sorted {
		b.Append(item.New(k, i))
	}
	return b
}

// keysOf extracts the key sequence of the occupied prefix.
// testPool returns an unguarded pool to draw copies and merges from.
func testPool() *Pool[int] { return NewPool(new(Domain).Register(), item.NewPool[int]()) }

// merge runs MergeTransferIn the way an LSM does, taking the inputs'
// references first as a lineage entry would; the obligations are dropped.
func merge(p *Pool[int], b1, b2 *Block[int], drop DropFunc[int]) *Block[int] {
	b1.AcquireRefs()
	b2.AcquireRefs()
	var owed []*item.Item[int]
	return MergeTransferIn(p, b1, b2, drop, &owed)
}

func keysOf(b *Block[int]) []uint64 {
	var out []uint64
	for _, it := range b.Items() {
		out = append(out, it.Key())
	}
	return out
}

func TestNewBlock(t *testing.T) {
	b := New[int](3)
	if b.Level() != 3 || b.Capacity() != 8 || b.Filled() != 0 || !b.Empty() {
		t.Fatalf("unexpected fresh block state: level=%d cap=%d filled=%d", b.Level(), b.Capacity(), b.Filled())
	}
}

func TestNewPanicsOnBadLevel(t *testing.T) {
	for _, level := range []int{-1, MaxLevel + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", level)
				}
			}()
			New[int](level)
		}()
	}
}

func TestLevelForCount(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, c := range cases {
		if got := LevelForCount(c.n); got != c.want {
			t.Errorf("LevelForCount(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAppendSkipsTaken(t *testing.T) {
	b := New[int](2)
	live := item.New(10, 0)
	dead := item.New[int](20, 0)
	dead.TryTake()
	b.Append(dead)
	b.Append(live)
	if b.Filled() != 1 || b.Item(0) != live {
		t.Fatalf("Append did not skip taken item: filled=%d", b.Filled())
	}
}

func TestCopyFiltersTaken(t *testing.T) {
	b := desc(t, 50, 40, 30, 20, 10)
	b.Item(1).TryTake() // key 40
	b.Item(3).TryTake() // key 20
	c := b.CopyIn(testPool(), b.Level())
	got := keysOf(c)
	want := []uint64{50, 30, 10}
	if len(got) != len(want) {
		t.Fatalf("copy kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("copy kept %v, want %v", got, want)
		}
	}
	if !c.SortedDesc() {
		t.Fatal("copy not sorted descending")
	}
}

func TestCopyDropAppliesCallback(t *testing.T) {
	b := desc(t, 5, 4, 3, 2, 1)
	c := b.CopyDropIn(testPool(), b.Level(), func(key uint64, _ int) bool { return key%2 == 0 })
	got := keysOf(c)
	want := []uint64{5, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("CopyDrop kept %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CopyDrop kept %v, want %v", got, want)
		}
	}
	// Dropped items must be claimed so other references cannot revive them.
	for _, it := range b.Items() {
		if it.Key()%2 == 0 && !it.Taken() {
			t.Fatalf("dropped item %d not taken", it.Key())
		}
	}
}

func TestMergeBasic(t *testing.T) {
	b1 := desc(t, 9, 7, 3)
	b2 := desc(t, 11, 4, 1)
	m := merge(testPool(), b1, b2, nil)
	got := keysOf(m)
	want := []uint64{11, 9, 7, 4, 3, 1}
	if len(got) != len(want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
}

func TestMergeWithDuplicateKeys(t *testing.T) {
	b1 := desc(t, 5, 5, 3)
	b2 := desc(t, 5, 3, 1)
	m := merge(testPool(), b1, b2, nil)
	if got := keysOf(m); len(got) != 6 || !m.SortedDesc() {
		t.Fatalf("merge with duplicates = %v", got)
	}
}

func TestMergeFiltersTaken(t *testing.T) {
	b1 := desc(t, 8, 6, 4)
	b2 := desc(t, 7, 5, 3)
	b1.Item(0).TryTake() // 8
	b2.Item(2).TryTake() // 3
	m := merge(testPool(), b1, b2, nil)
	got := keysOf(m)
	want := []uint64{7, 6, 5, 4}
	if len(got) != len(want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
}

func TestMergeEmptyBlocks(t *testing.T) {
	e1, e2 := New[int](0), New[int](0)
	m := merge(testPool(), e1, e2, nil)
	if !m.Empty() {
		t.Fatal("merge of empties not empty")
	}
	b := desc(t, 2, 1)
	m2 := merge(testPool(), b, New[int](0), nil)
	if got := keysOf(m2); len(got) != 2 || got[0] != 2 {
		t.Fatalf("merge with empty = %v", got)
	}
}

func TestMergeUnitesBlooms(t *testing.T) {
	b1, b2 := desc(t, 3), desc(t, 2)
	b1.AddOwner(1)
	b2.AddOwner(2)
	m := merge(testPool(), b1, b2, nil)
	if !m.Bloom().MayContain(1) || !m.Bloom().MayContain(2) {
		t.Fatal("merged bloom lost an owner")
	}
}

func TestShrinkTrimsDeletedTail(t *testing.T) {
	b := desc(t, 40, 30, 20, 10)
	b.Item(3).TryTake() // 10, the minimum
	b.Item(2).TryTake() // 20
	s := b.ShrinkIn(testPool())
	if s.Filled() != 2 {
		t.Fatalf("shrink filled = %d, want 2", s.Filled())
	}
	if s.Level() != 1 {
		t.Fatalf("shrink level = %d, want 1", s.Level())
	}
	got := keysOf(s)
	if got[0] != 40 || got[1] != 30 {
		t.Fatalf("shrink kept %v", got)
	}
}

func TestShrinkNoopWhenFull(t *testing.T) {
	b := desc(t, 4, 3, 2)
	s := b.ShrinkIn(testPool())
	if s != b {
		t.Fatal("shrink reallocated a block that satisfies its level")
	}
	if s.Filled() != 3 {
		t.Fatalf("filled = %d", s.Filled())
	}
}

func TestShrinkIgnoresMidArrayDeletions(t *testing.T) {
	// Shrink only considers the logically deleted *tail* (Listing 1); with a
	// live minimum the block keeps its level even if mid-array items died.
	// Mid-array garbage is reclaimed by the next copy/merge instead.
	b := desc(t, 80, 70, 60, 50, 40, 30, 20, 10)
	for _, i := range []int{1, 2, 3, 4, 5} {
		b.Item(i).TryTake()
	}
	s := b.ShrinkIn(testPool())
	if s != b || s.Level() != 3 || s.Filled() != 8 {
		t.Fatalf("shrink with live tail changed block: level=%d filled=%d", s.Level(), s.Filled())
	}
	// A copy cleans mid-array deletions and a subsequent shrink compacts.
	c := s.CopyIn(testPool(), s.Level()).ShrinkIn(testPool())
	if c.LiveCount() != 3 || c.Filled() != 3 {
		t.Fatalf("copy+shrink live = %d filled = %d, want 3/3", c.LiveCount(), c.Filled())
	}
	if c.Level() > 2 {
		t.Fatalf("copy+shrink level = %d, want <= 2", c.Level())
	}
	if !c.SortedDesc() {
		t.Fatal("not sorted after copy+shrink")
	}
}

func TestShrinkEmptiesToLevelZero(t *testing.T) {
	b := desc(t, 3, 2, 1)
	for i := 0; i < 3; i++ {
		b.Item(i).TryTake()
	}
	s := b.ShrinkIn(testPool())
	if !s.Empty() || s.Level() != 0 {
		t.Fatalf("shrink of dead block: filled=%d level=%d", s.Filled(), s.Level())
	}
}

func TestShrinkInPlace(t *testing.T) {
	b := desc(t, 40, 30, 20, 10)
	b.Item(3).TryTake()
	b.Item(2).TryTake()
	if got := b.ShrinkInPlace(); got != 2 {
		t.Fatalf("ShrinkInPlace = %d, want 2", got)
	}
	if b.Filled() != 2 {
		t.Fatalf("filled after in-place shrink = %d", b.Filled())
	}
	// Idempotent.
	if got := b.ShrinkInPlace(); got != 2 {
		t.Fatalf("second ShrinkInPlace = %d", got)
	}
}

func TestMinAndLiveMin(t *testing.T) {
	b := desc(t, 30, 20, 10)
	if b.Min().Key() != 10 {
		t.Fatalf("Min = %d, want 10", b.Min().Key())
	}
	it, skipped := b.LiveMin()
	if it.Key() != 10 || skipped != 0 {
		t.Fatalf("LiveMin = %d (skipped %d)", it.Key(), skipped)
	}
	b.Item(2).TryTake()
	it, skipped = b.LiveMin()
	if it.Key() != 20 || skipped != 1 {
		t.Fatalf("LiveMin after delete = %v (skipped %d)", it, skipped)
	}
	// LiveMin must not mutate.
	if b.Filled() != 3 {
		t.Fatal("LiveMin mutated filled")
	}
}

func TestLiveMinAllDead(t *testing.T) {
	b := desc(t, 2, 1)
	b.Item(0).TryTake()
	b.Item(1).TryTake()
	if it, skipped := b.LiveMin(); it != nil || skipped != 2 {
		t.Fatalf("LiveMin on dead block = %v (skipped %d)", it, skipped)
	}
	if New[int](0).Min() != nil {
		t.Fatal("Min of empty block not nil")
	}
}

func TestUnderfull(t *testing.T) {
	b := New[int](2) // capacity 4, needs > 2 items
	b.Append(item.New[int](3, 0))
	b.Append(item.New[int](2, 0))
	if !b.Underfull() {
		t.Fatal("2 items at level 2 should be underfull")
	}
	b.Append(item.New[int](1, 0))
	if b.Underfull() {
		t.Fatal("3 items at level 2 should not be underfull")
	}
	z := New[int](0)
	if !z.Underfull() {
		t.Fatal("empty level-0 block should be underfull")
	}
	z.Append(item.New[int](1, 0))
	if z.Underfull() {
		t.Fatal("full level-0 block should not be underfull")
	}
}
