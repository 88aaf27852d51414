package item

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestVersionedFlagLifecycle(t *testing.T) {
	it := New[string](1, "a")
	if v := it.Version(); v != 0 {
		t.Fatalf("fresh version = %d, want 0", v)
	}
	if !it.TryTake() {
		t.Fatal("TryTake failed")
	}
	if v := it.Version(); v != 1 {
		t.Fatalf("taken version = %d, want 1", v)
	}
	it.Reset(2, "b")
	if it.Taken() {
		t.Fatal("reset item still taken")
	}
	if v := it.Version(); v != 2 {
		t.Fatalf("reset version = %d, want 2", v)
	}
	if it.Key() != 2 || it.Value() != "b" {
		t.Fatalf("reset contents = %d/%q", it.Key(), it.Value())
	}
	if !it.TryTake() {
		t.Fatal("TryTake on reset item failed")
	}
	if v := it.Version(); v != 3 {
		t.Fatalf("version after second take = %d, want 3", v)
	}
}

func TestResetPanicsOnLiveItem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset of a live item did not panic")
		}
	}()
	New[int](1, 1).Reset(2, 2)
}

func TestPoolPutPanicsOnLiveItem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a live item did not panic")
		}
	}()
	NewPool[int]().Put(New[int](1, 1))
}

// TestTryTakeReuseExactlyOnce is the ABA scenario §4.4 guards against: many
// goroutines race TryTake on the same items while the owner recycles each
// item as soon as it is taken. Every incarnation must be taken exactly once,
// which the final version count proves: one flag increment per take and one
// per revival means the version equals takes + resets.
func TestTryTakeReuseExactlyOnce(t *testing.T) {
	const (
		goroutines   = 4
		incarnations = 200
		items        = 8
	)
	its := make([]*Item[int], items)
	for i := range its {
		its[i] = New(uint64(i), i)
	}
	var wins atomic.Int64
	var wg sync.WaitGroup
	var stop atomic.Bool
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				for _, it := range its {
					if it.TryTake() {
						wins.Add(1)
					}
				}
				runtime.Gosched()
			}
		}()
	}
	// The "owner": revive taken items until every item lived through
	// `incarnations` revivals.
	revived := make([]int, items)
	for {
		done := true
		for i, it := range its {
			if revived[i] < incarnations {
				done = false
				if it.Taken() {
					it.Reset(uint64(i), i)
					revived[i]++
				}
			}
		}
		if done {
			break
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	// Versions prove exactly-once: takes = wins, resets = incarnations per
	// item, and every take/reset bumped the flag exactly once.
	var versions, resets uint64
	for i, it := range its {
		versions += it.Version()
		resets += uint64(revived[i])
	}
	if got := uint64(wins.Load()) + resets; versions != got {
		t.Fatalf("version sum %d != takes %d + resets %d (double-take or lost take)",
			versions, wins.Load(), resets)
	}
}

func TestPoolRecyclesAndSlabs(t *testing.T) {
	p := NewPool[int]()
	first := p.Get(1, 10)
	if first.Key() != 1 || first.Value() != 10 || first.Taken() {
		t.Fatal("bad pooled item")
	}
	if !first.TryTake() {
		t.Fatal("take failed")
	}
	p.Put(first)
	second := p.Get(2, 20)
	if second != first {
		t.Fatal("pool did not recycle the retired item")
	}
	if second.Key() != 2 || second.Value() != 20 || second.Taken() {
		t.Fatal("recycled item not reset")
	}
	// Slab carving: consecutive Gets without Puts must not allocate per item.
	allocs := testing.AllocsPerRun(100, func() {
		it := p.Get(3, 30)
		it.TryTake() // keep the pool contract honest even though we drop it
	})
	if allocs > 0.05 {
		t.Fatalf("slab Get allocates %.2f per op, want ~1/%d", allocs, slabSize)
	}
	slabAllocs, reuses := p.Stats()
	if slabAllocs == 0 || reuses != 1 {
		t.Fatalf("stats = %d slabs, %d reuses", slabAllocs, reuses)
	}
}
