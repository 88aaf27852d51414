package sharedlsm

import (
	"testing"

	"klsm/internal/xrand"
)

// TestLargeKDrainCompletes is the regression test for the large-k
// performance collapse: draining a large prefill at k=4096 must terminate
// promptly (the original code paid O(dead) per delete and O(k) pivot
// recalculation per stale candidate, which turns this drain quadratic).
func TestLargeKDrainCompletes(t *testing.T) {
	n := 200000
	if testing.Short() {
		n = 20000
	}
	s := New[int](4096, true)
	c := newCursor(s, 1)
	src := xrand.NewSeeded(5)
	// Insert in chunks of 512 to mimic DistLSM overflow blocks.
	chunk := make([]uint64, 0, 512)
	for i := 0; i < n; i++ {
		chunk = append(chunk, src.Uint64())
		if len(chunk) == 512 {
			s.Insert(c, blockOf(chunk...))
			chunk = chunk[:0]
		}
	}
	if len(chunk) > 0 {
		s.Insert(c, blockOf(chunk...))
	}
	got := 0
	for {
		if _, ok := deleteMin(s, c); !ok {
			break
		}
		got++
	}
	if got != n {
		t.Fatalf("drained %d of %d", got, n)
	}
}

// TestSetKTakesEffect verifies run-time reconfiguration: after SetK(0) the
// next snapshots behave exactly.
func TestSetKTakesEffect(t *testing.T) {
	s := New[int](1<<16, false) // huge k, no local ordering
	c := newCursor(s, 1)
	for i := uint64(0); i < 512; i++ {
		s.Insert(c, blockOf(512-i))
	}
	s.SetK(0)
	if s.K() != 0 {
		t.Fatalf("K = %d", s.K())
	}
	// Force a fresh snapshot + pivot recalculation through an insert.
	s.Insert(c, blockOf(100000))
	// With k=0 every subsequent delete must be the exact minimum.
	want := uint64(1)
	for i := 0; i < 512; i++ {
		k, ok := deleteMin(s, c)
		if !ok {
			t.Fatalf("empty after %d deletes", i)
		}
		if k != want {
			t.Fatalf("after SetK(0): got %d, want %d", k, want)
		}
		want++
	}
}

func TestSetKNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New[int](4, true).SetK(-2)
}

// TestWindowExhaustionRecovers: consume the whole candidate window and
// verify find-min recalculates pivots rather than reporting empty (the
// needPivots path).
func TestWindowExhaustionRecovers(t *testing.T) {
	s := New[int](8, true)
	c := newCursor(s, 1)
	s.Insert(c, blockOf(func() []uint64 {
		keys := make([]uint64, 1024)
		for i := range keys {
			keys[i] = uint64(i)
		}
		return keys
	}()...))
	// Delete more keys than one pivot window holds; every delete must
	// succeed and stay within the bound.
	for i := 0; i < 1024; i++ {
		k, ok := deleteMin(s, c)
		if !ok {
			t.Fatalf("spurious empty after %d deletes", i)
		}
		if k >= uint64(i+1+8) {
			t.Fatalf("delete %d returned %d, beyond k-bound window", i, k)
		}
	}
}

// TestInsertShiftsPivotOffsets: insert moves the pivot offsets along with
// the blocks it shifts. A block whose candidate suffix is dead but for its
// last item is compaction-copied by the consolidation of the next insert,
// also when the new block lands in front of it. With the offsets left in
// place the block would read its neighbour's offset, or none when it is
// the last block, and the copy would not run.
func TestInsertShiftsPivotOffsets(t *testing.T) {
	s := New[int](1024, false)
	c := newCursor(s, 1)
	keys := make([]uint64, 128)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	s.Insert(c, blockOf(keys...))
	a := s.Snapshot()
	if len(a.blocks) != 1 || a.pivots[0] != 0 {
		t.Fatalf("setup: %d blocks, pivots %v; want one block, all of it candidates", len(a.blocks), a.pivots)
	}
	x := a.blocks[0]
	// Take every item but the smallest key, in the last slot: the tail
	// stays live, so only the compaction copy reclaims the dead items.
	for i := 0; i < x.Filled()-1; i++ {
		if !x.Item(i).TryTake() {
			t.Fatalf("take slot %d failed", i)
		}
	}
	big := make([]uint64, 200)
	for i := range big {
		big[i] = uint64(1000 + i)
	}
	s.Insert(c, blockOf(big...)) // one level above x: placed in front of it
	slots := 0
	for _, b := range s.Snapshot().blocks {
		if b == x {
			t.Fatal("the insert kept the mostly dead block without compacting it")
		}
		slots += b.Filled()
	}
	if slots != len(big)+1 {
		t.Fatalf("published array holds %d slots, want %d live ones", slots, len(big)+1)
	}
}
