package sharedlsm

import (
	"sort"
	"sync"
	"testing"

	"klsm/internal/xrand"
)

// TestMinCachingRelaxationBound mirrors TestRelaxationBoundSingleThread with
// the candidate window on: popping successive cached candidates must stay
// within the k+1-smallest bound at every step.
func TestMinCachingRelaxationBound(t *testing.T) {
	for _, k := range []int{0, 1, 4, 16, 64} {
		s := New[int](k, true)
		c := newCursor(s, 1)
		src := xrand.NewSeeded(uint64(k) + 7)

		var live []uint64 // kept sorted ascending
		insert := func(key uint64) {
			i := sort.Search(len(live), func(i int) bool { return live[i] >= key })
			live = append(live, 0)
			copy(live[i+1:], live[i:])
			live[i] = key
		}
		for i := 0; i < 300; i++ {
			key := src.Uint64() % 10000
			s.Insert(c, blockOf(key))
			insert(key)
		}
		for len(live) > 0 {
			key, ok := deleteMin(s, c)
			if !ok {
				t.Fatalf("k=%d: queue empty with %d live keys", k, len(live))
			}
			rank := sort.Search(len(live), func(i int) bool { return live[i] >= key })
			if rank > k {
				t.Fatalf("k=%d: returned key %d has rank %d > k", k, key, rank)
			}
			i := sort.Search(len(live), func(i int) bool { return live[i] >= key })
			if i == len(live) || live[i] != key {
				t.Fatalf("k=%d: returned key %d not live", k, key)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
}

// TestMinCachingLocalOrdering: the cached window's local-ordering overlay
// must still hand a handle its own minimum first.
func TestMinCachingLocalOrdering(t *testing.T) {
	s := New[int](1<<20, true)
	mine := newCursor(s, 1)
	other := newCursor(s, 2)
	for i := uint64(0); i < 200; i++ {
		s.Insert(other, blockOf(1000+i))
	}
	insertKeys(s, mine, 5, 3, 8)
	for _, want := range []uint64{3, 5, 8} {
		k, ok := deleteMin(s, mine)
		if !ok || k != want {
			t.Fatalf("local ordering violated with min caching: got %d (%v), want %d", k, ok, want)
		}
	}
}

// TestMinHintLifecycle: a successful FindMin arms the hint; any publication
// that moves the shared pointer disarms it.
func TestMinHintLifecycle(t *testing.T) {
	s := New[int](4, true)
	c := newCursor(s, 1)
	if _, ok := s.MinHint(c); ok {
		t.Fatal("fresh cursor has a hint")
	}
	insertKeys(s, c, 30, 10, 20)
	it := s.FindMin(c)
	if it == nil {
		t.Fatal("FindMin found nothing")
	}
	hint, ok := s.MinHint(c)
	if !ok {
		t.Fatal("no hint after successful FindMin")
	}
	if hint != it.Key() {
		t.Fatalf("hint %d != candidate key %d", hint, it.Key())
	}
	// The hint is a lower bound on every key the shared side can supply.
	if hint > 10 {
		t.Fatalf("hint %d exceeds live minimum 10", hint)
	}
	// A publication moves the pointer: the hint must expire.
	insertKeys(s, c, 5)
	if _, ok := s.MinHint(c); ok {
		t.Fatal("hint survived a publication")
	}
	// The next FindMin re-arms it, now covering the smaller key.
	it = s.FindMin(c)
	if it == nil || it.Key() != 5 {
		t.Fatalf("FindMin after insert = %v, want key 5", it)
	}
	if hint, ok := s.MinHint(c); !ok || hint != 5 {
		t.Fatalf("re-armed hint = %d (%v), want 5", hint, ok)
	}
}

// TestStickyHintCrossPublication covers the sticky generalization of the
// skip-shared hint: a publication that moves the shared pointer no longer
// kills the hint outright — the skip is re-granted when the new array's
// minimum-key floor proves the shared side holds nothing below the local
// key, re-arming the hint on the new array; the budget bounds consecutive
// sticks and an undercutting publication denies and resets.
func TestStickyHintCrossPublication(t *testing.T) {
	s := New[int](4, true)
	s.SetStickyHint(2)
	c := newCursor(s, 1)
	insertKeys(s, c, 100, 200, 300)
	it := s.FindMin(c)
	if it == nil || it.Key() != 100 {
		t.Fatalf("FindMin = %v, want key 100", it)
	}
	// Exact path: same array, local key at or below the hint — no stick.
	if !s.SkipShared(c, 50) {
		t.Fatal("exact-array skip denied")
	}
	if got := c.HintSticks.Load(); got != 0 {
		t.Fatalf("exact skip counted as a stick: %d", got)
	}
	// A publication moves the pointer; the floor 100 ≥ 50 proves no shared
	// key undercuts the local one → sticky skip, hint re-armed.
	insertKeys(s, c, 150)
	if !s.SkipShared(c, 50) {
		t.Fatal("sticky skip denied despite floor ≥ local key")
	}
	if got := c.HintSticks.Load(); got != 1 {
		t.Fatalf("HintSticks = %d, want 1", got)
	}
	// Re-armed on the new array: the next skip is exact again.
	if !s.SkipShared(c, 50) {
		t.Fatal("re-armed skip denied")
	}
	if got := c.HintSticks.Load(); got != 1 {
		t.Fatalf("exact skip after re-arm counted as a stick: %d", got)
	}
	// Budget: a second consecutive stick is the last the budget of 2 allows.
	insertKeys(s, c, 160)
	if !s.SkipShared(c, 50) {
		t.Fatal("second sticky skip denied")
	}
	insertKeys(s, c, 170)
	if s.SkipShared(c, 50) {
		t.Fatal("sticky skip granted past the budget")
	}
	// A real shared query resets the streak and re-arms.
	if s.FindMin(c) == nil {
		t.Fatal("FindMin found nothing")
	}
	insertKeys(s, c, 180)
	if !s.SkipShared(c, 50) {
		t.Fatal("sticky skip denied after streak reset")
	}
	// An undercutting publication (floor below the local key) must deny:
	// the shared side now holds a key the local minimum does not dominate.
	insertKeys(s, c, 10)
	if s.SkipShared(c, 50) {
		t.Fatal("skip granted with shared key 10 below local 50")
	}
}

// TestStickyHintDisabled: with a zero sticky budget the hint dies with its
// array — the pre-sticky MinHint behavior.
func TestStickyHintDisabled(t *testing.T) {
	s := New[int](4, true)
	c := newCursor(s, 1)
	insertKeys(s, c, 100)
	if s.FindMin(c) == nil {
		t.Fatal("FindMin found nothing")
	}
	if !s.SkipShared(c, 50) {
		t.Fatal("exact-array skip denied")
	}
	insertKeys(s, c, 150)
	if s.SkipShared(c, 50) {
		t.Fatal("cross-publication skip granted with stickiness disabled")
	}
}

// TestMinCachingWindowExhaustion drains far past one window's worth of
// candidates so exhaustion → pivot recalculation → rebuild cycles are
// exercised.
func TestMinCachingWindowExhaustion(t *testing.T) {
	s := New[int](2, true)
	c := newCursor(s, 1)
	const n = 500
	for i := 0; i < n; i++ {
		s.Insert(c, blockOf(uint64(i^0x155)))
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		k, ok := deleteMin(s, c)
		if !ok {
			t.Fatalf("empty after %d of %d deletions", i, n)
		}
		if seen[k] {
			t.Fatalf("key %d extracted twice", k)
		}
		seen[k] = true
	}
	if k, ok := deleteMin(s, c); ok {
		t.Fatalf("extra key %d after full drain", k)
	}
}

// TestMinCachingConcurrentConservation mirrors TestConcurrentConservation
// with the candidate window on: exactly-once extraction under contention.
func TestMinCachingConcurrentConservation(t *testing.T) {
	const workers = 8
	n := 3000
	if testing.Short() {
		n = 500
	}
	for _, k := range []int{0, 4, 256} {
		s := New[int](k, true)
		var wg sync.WaitGroup
		extracted := make([][]uint64, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c := newCursor(s, uint64(id+1))
				base := uint64(id * n)
				for i := 0; i < n; i++ {
					s.Insert(c, blockOf(base+uint64(i)))
				}
				for {
					key, ok := deleteMin(s, c)
					if !ok {
						return
					}
					extracted[id] = append(extracted[id], key)
				}
			}(w)
		}
		wg.Wait()
		seen := make(map[uint64]int)
		total := 0
		for _, keys := range extracted {
			for _, key := range keys {
				seen[key]++
				total++
			}
		}
		if total != workers*n {
			t.Fatalf("k=%d: extracted %d keys, want %d", k, total, workers*n)
		}
		for key, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("k=%d: key %d extracted %d times", k, key, cnt)
			}
		}
	}
}
