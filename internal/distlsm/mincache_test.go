package distlsm

import (
	"math"
	"sync"
	"testing"

	"klsm/internal/binheap"
	"klsm/internal/block"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

// TestMaxLevelForHugeK is the regression test for the shift overflow: for k
// near the int range the naive `1<<uint(level+1) <= k+1` loop shifts past
// the word width (Go defines that as 0) and never terminates. The threshold
// must clamp to block.MaxLevel instead.
func TestMaxLevelForHugeK(t *testing.T) {
	for _, k := range []int{
		1<<block.MaxLevel - 2, // one below the clamp: still computed exactly
		1<<block.MaxLevel - 1,
		1 << block.MaxLevel,
		1 << 60,
		1<<62 - 1,
		1 << 62,
		math.MaxInt - 1,
		math.MaxInt, // k+1 overflows int
	} {
		got := maxLevelFor(k)
		if got > block.MaxLevel {
			t.Fatalf("maxLevelFor(%d) = %d exceeds block.MaxLevel", k, got)
		}
		// Bound property: 2^level - 1 <= k must still hold at the clamp.
		if (1<<uint(got))-1 > k {
			t.Fatalf("maxLevelFor(%d) = %d violates capacity bound", k, got)
		}
	}
	if got := newDist[int](1, math.MaxInt).MaxLevel(); got != block.MaxLevel {
		t.Fatalf("New with huge k: MaxLevel() = %d, want %d", got, block.MaxLevel)
	}
	d := newDist[int](1, 0)
	d.SetK(math.MaxInt) // the run-time reconfiguration path must clamp too
	if got := d.MaxLevel(); got != block.MaxLevel {
		t.Fatalf("SetK with huge k: MaxLevel() = %d, want %d", got, block.MaxLevel)
	}
}

// TestMinCacheSequentialEquivalence runs a randomized owner workload against
// an exact heap: every FindMin observation and the full drain order must
// match it — the cache is a pure optimization.
func TestMinCacheSequentialEquivalence(t *testing.T) {
	d := newDist[int](1, -1)
	oracle := binheap.New(4)
	rng := xrand.NewSeeded(99)
	for op := 0; op < 20_000; op++ {
		if rng.Intn(2) == 0 {
			k := rng.Uint64n(1 << 20)
			d.Insert(item.New(k, 0), nil)
			oracle.Push(k)
			continue
		}
		it := d.FindMin()
		want, ok := oracle.Pop()
		switch {
		case (it == nil) == ok:
			t.Fatalf("op %d: FindMin %v, oracle non-empty %v", op, it, ok)
		case it == nil:
			continue
		case it.Key() != want:
			t.Fatalf("op %d: min %d, oracle %d", op, it.Key(), want)
		}
		if !it.TryTake() {
			t.Fatalf("op %d: sequential TryTake failed", op)
		}
	}
	for i, k := range drain(d) {
		if want, ok := oracle.Pop(); !ok || k != want {
			t.Fatalf("drain diverges at %d: got %d, oracle %d (ok=%v)", i, k, want, ok)
		}
	}
	if !oracle.Empty() {
		t.Fatalf("drain stopped with %d oracle keys left", oracle.Len())
	}
}

// TestMinCacheOverflowAndSetK exercises the eviction paths that must keep
// the cache aligned: bounded inserts overflow blocks, and a run-time k
// reduction evicts via the compaction shift.
func TestMinCacheOverflowAndSetK(t *testing.T) {
	var overflowed []uint64
	overflow := func(b *block.Block[int]) {
		for _, it := range b.Items() {
			if !it.Taken() {
				overflowed = append(overflowed, it.Key())
			}
		}
	}
	d := newDist[int](1, 255)
	rng := xrand.NewSeeded(5)
	inserted := map[uint64]bool{}
	for i := 0; i < 4_000; i++ {
		k := rng.Uint64n(1 << 30)
		if inserted[k] {
			continue
		}
		inserted[k] = true
		d.Insert(item.New(k, 0), overflow)
		if i%5 == 0 {
			d.FindMin() // interleave cached reads with the mutations
		}
		if i == 2_000 {
			d.SetK(3) // shrink the bound: the next insert evicts a prefix
		}
	}
	got := append(drain(d), overflowed...)
	if len(got) != len(inserted) {
		t.Fatalf("conservation violated: %d keys out, %d in", len(got), len(inserted))
	}
	for _, k := range got {
		if !inserted[k] {
			t.Fatalf("alien key %d", k)
		}
	}
}

// TestMinCacheSpyAppends: spying into a cached (and warmed) Dist must
// extend the cache consistently — the spied minima are immediately visible
// to FindMin.
func TestMinCacheSpyAppends(t *testing.T) {
	victim := newDist[int](2, -1)
	for _, k := range []uint64{80, 40, 60, 20} {
		victim.Insert(item.New(k, 0), nil)
	}
	d := newDist[int](1, -1)
	d.Insert(item.New(100, 0), nil)
	it := d.FindMin() // warm the cache
	if it == nil || it.Key() != 100 {
		t.Fatalf("pre-spy minimum = %v, want key 100", it)
	}
	if !it.TryTake() {
		t.Fatal("sequential TryTake failed")
	}
	if d.FindMin() != nil { // consolidates the dead block away, cache stays valid-empty
		t.Fatal("minimum visible after drain")
	}
	if !d.Spy(victim) {
		t.Fatal("spy found nothing")
	}
	if got := d.FindMin(); got == nil || got.Key() != 20 {
		t.Fatalf("post-spy FindMin = %v, want key 20", got)
	}
	if !d.CheckInvariants() {
		t.Fatal("invariants violated after spy")
	}
}

// TestMinCacheConcurrentTakers: while the owner runs a cached insert/find
// loop, other goroutines spy the owner's blocks and take items — the exact
// cross-thread invalidation the taken-flag validation must catch. Every key
// is extracted at most once, and owner + spies together account for all.
func TestMinCacheConcurrentTakers(t *testing.T) {
	const (
		spies = 4
		n     = 20_000
	)
	owner := newDist[int](1, -1)
	var wg sync.WaitGroup
	taken := make([][]uint64, spies+1)
	stop := make(chan struct{})
	for s := 0; s < spies; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d := newDist[int](uint64(id+2), -1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !d.Spy(owner) {
					continue
				}
				for {
					it := d.FindMin()
					if it == nil {
						break
					}
					if it.TryTake() {
						taken[id+1] = append(taken[id+1], it.Key())
					}
				}
			}
		}(s)
	}
	rng := xrand.NewSeeded(17)
	for i := 0; i < n; i++ {
		owner.Insert(item.New(uint64(i), 0), nil)
		if rng.Intn(2) == 0 {
			if it := owner.FindMin(); it != nil && it.TryTake() {
				taken[0] = append(taken[0], it.Key())
			}
		}
	}
	for {
		it := owner.FindMin()
		if it == nil {
			break
		}
		if it.TryTake() {
			taken[0] = append(taken[0], it.Key())
		}
	}
	close(stop)
	wg.Wait()
	seen := make(map[uint64]int)
	total := 0
	for _, keys := range taken {
		for _, k := range keys {
			seen[k]++
			total++
		}
	}
	for k, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("key %d taken %d times", k, cnt)
		}
	}
	if total != n {
		t.Fatalf("extracted %d keys, want %d", total, n)
	}
}
