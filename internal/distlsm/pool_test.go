package distlsm

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"klsm/internal/block"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

// TestPooledDistSequential checks that a pooled Dist drains in exact key
// order, recycles blocks, and releases every taken item exactly once.
func TestPooledDistSequential(t *testing.T) {
	ip := item.NewPool[int]()
	pool := block.NewPool(nil, ip) // single-threaded: nil guard
	d := New(1, -1, pool)

	rng := xrand.NewSeeded(21)
	var keys []uint64
	for i := 0; i < 4000; i++ {
		k := rng.Uint64n(1 << 30)
		keys = append(keys, k)
		d.Insert(ip.Get(k, int(k)), nil)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, want := range keys {
		it := d.FindMin()
		if it == nil || it.Key() != want {
			t.Fatalf("FindMin %d = %v, want key %d", i, it, want)
		}
		if !it.TryTake() {
			t.Fatal("sequential take failed")
		}
	}
	if d.FindMin() != nil {
		t.Fatal("queue not drained")
	}
	if !d.CheckInvariants() {
		t.Fatal("pooled invariants violated")
	}
	if st := pool.Stats(); st.Hits == 0 || st.ItemsLostLive != 0 {
		t.Fatalf("pool stats %+v: want recycled blocks and no live item released", st)
	}
	if got := ip.Puts(); got != int64(len(keys)) {
		t.Fatalf("item releases = %d, want %d", got, len(keys))
	}
}

// TestPooledEvictionPrivateCopies is the regression test for the eviction
// recycling bug: evictOversized must hand the overflow target a private
// copy (Shared.Insert may recycle what it receives) and retire the
// still-published originals through the guard, never directly. A spy runs
// concurrently throughout a run-time k reduction to give -race a shot at
// any premature reuse.
func TestPooledEvictionPrivateCopies(t *testing.T) {
	var g block.Guard
	d := New(1, -1, block.NewPool(&g, item.NewPool[int]())) // unbounded: grow big local blocks first

	rng := xrand.NewSeeded(41)
	inserted := 0
	for i := 0; i < 500; i++ {
		d.Insert(item.New(rng.Uint64n(1<<30), i), nil)
		inserted++
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			// A fresh spy each round keeps copying the full structure.
			spy := New(7, -1, block.NewPool(&g, item.NewPool[int]()))
			spy.Spy(d)
			if !spy.CheckInvariants() {
				panic("spy invariants violated during eviction")
			}
		}
	}()

	// Reduce k at run time: the next inserts evict the oversized prefix.
	d.SetK(3)
	var overflowed []*block.Block[int]
	overflow := func(b *block.Block[int]) { overflowed = append(overflowed, b) }
	for i := 0; i < 200; i++ {
		if d.Insert(item.New(rng.Uint64n(1<<30), i), overflow) {
			// kept locally
		}
		inserted++
	}
	stop.Store(true)
	wg.Wait()

	if len(overflowed) == 0 {
		t.Fatal("k reduction evicted nothing — test exercises nothing")
	}
	if !d.CheckInvariants() {
		t.Fatal("victim invariants violated after eviction")
	}
	// Overflowed blocks must be private copies: none of them may alias a
	// block still published in the Dist.
	for _, ob := range overflowed {
		for i := 0; i < d.Blocks(); i++ {
			if d.BlockAt(i) == ob {
				t.Fatal("overflow received a block still published in the Dist")
			}
		}
		if !ob.SortedDesc() {
			t.Fatal("overflowed block unsorted")
		}
	}
	// Conservation: every live item is reachable exactly once across the
	// local blocks and the overflowed copies (duplicates would show up as
	// a surplus; lost items as a deficit).
	live := d.LiveCount()
	for _, ob := range overflowed {
		live += ob.LiveCount()
	}
	if live != inserted {
		t.Fatalf("conservation violated: %d live of %d inserted", live, inserted)
	}
}

// TestPooledSpyConcurrent is the §4.4 distlsm safety check: a victim owner
// inserts and deletes (retiring published blocks into its pool) while
// spies copy from it through the shared guard. Under -race this verifies
// retired blocks are never recycled while a spy can still read them.
func TestPooledSpyConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency stress; skipped with -short")
	}
	var g block.Guard
	victim := New(1, -1, block.NewPool(&g, item.NewPool[int]()))

	const ops = 30000
	var stop atomic.Bool
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			spy := New(uint64(id)+10, -1, block.NewPool(&g, item.NewPool[int]()))
			for !stop.Load() {
				spy.Spy(victim)
				// Drain the copies so the spy's own structure keeps cycling.
				for it := spy.FindMin(); it != nil; it = spy.FindMin() {
					it.TryTake()
				}
				if !spy.CheckInvariants() {
					panic("spy invariants violated")
				}
			}
		}(s)
	}

	rng := xrand.NewSeeded(31)
	for i := 0; i < ops; i++ {
		victim.Insert(item.New(rng.Uint64n(1<<28), i), nil)
		if i%3 == 0 {
			if it := victim.FindMin(); it != nil {
				it.TryTake()
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if !victim.CheckInvariants() {
		t.Fatal("victim invariants violated")
	}
	if victim.pool.Stats().Retired == 0 {
		t.Fatal("victim never retired a published block — test exercises nothing")
	}
}
