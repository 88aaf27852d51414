package sharedlsm

import (
	"sync"
	"testing"

	"klsm/internal/block"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

func singletonIn(p *block.Pool[int], id uint64, key uint64) *block.Block[int] {
	b := p.Get(0)
	b.AddOwner(id)
	b.Append(item.New(key, int(key)))
	return b
}

// TestPooledSharedSequential drives insert/find-min/take cycles through a
// pooled cursor and checks behavior plus eventual block recycling.
func TestPooledSharedSequential(t *testing.T) {
	var g block.Guard
	s := New[int](8, true)
	c, p, _ := newReclaimCursor(s, &g, 1)

	const n = 5000
	inserted := make(map[uint64]bool, n)
	rng := xrand.NewSeeded(5)
	for i := 0; i < n; i++ {
		k := rng.Uint64n(1 << 40)
		for inserted[k] {
			k = rng.Uint64n(1 << 40)
		}
		inserted[k] = true
		s.Insert(c, singletonIn(p, 1, k))
	}
	got := 0
	for {
		it := s.FindMin(c)
		if it == nil {
			break
		}
		if !it.TryTake() {
			t.Fatal("sequential take failed")
		}
		if !inserted[it.Key()] {
			t.Fatalf("unknown key %d", it.Key())
		}
		delete(inserted, it.Key())
		got++
	}
	if got != n {
		t.Fatalf("drained %d of %d items", got, n)
	}
	st := p.Stats()
	if st.Hits == 0 || st.Puts == 0 {
		t.Fatalf("pooled shared path never recycled: %+v", st)
	}
	if !g.Quiescent() {
		t.Fatal("guard not quiescent after sequential run")
	}
}

// TestPooledSharedConcurrent hammers the epoch-reclamation scheme: several
// pooled cursors insert and delete concurrently while recycled blocks flow
// between the shared limbo and the per-cursor pools. Run under -race this
// is the §4.4 safety check for the shared k-LSM.
func TestPooledSharedConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency stress; skipped with -short")
	}
	var g block.Guard
	s := New[int](64, true)

	const (
		workers = 4
		perW    = 8000
	)
	var wg sync.WaitGroup
	var taken, inserts [workers]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, p, _ := newReclaimCursor(s, &g, uint64(id)+1)
			rng := xrand.NewSeeded(uint64(id)*991 + 7)
			for i := 0; i < perW; i++ {
				if rng.Bool() {
					s.Insert(c, singletonIn(p, uint64(id)+1, rng.Uint64n(1<<32)))
					inserts[id]++
				} else {
					it := s.FindMin(c)
					if it != nil && it.TryTake() {
						taken[id]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Drain what remains; conservation demands inserts == takes + drained.
	c, _, _ := newReclaimCursor(s, &g, 99)
	var drained int64
	for {
		it := s.FindMin(c)
		if it == nil {
			break
		}
		if it.TryTake() {
			drained++
		}
	}
	var totalTaken, totalIns int64
	for w := 0; w < workers; w++ {
		totalTaken += taken[w]
		totalIns += inserts[w]
	}
	if totalTaken+drained != totalIns {
		t.Fatalf("conservation violated: %d inserted, %d taken + %d drained",
			totalIns, totalTaken, drained)
	}
	if snap := s.Snapshot(); snap != nil && snap.LiveCount() != 0 {
		t.Fatalf("%d live items left after drain", snap.LiveCount())
	}
}
