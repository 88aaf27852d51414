package distlsm

import (
	"sort"
	"sync"
	"testing"

	"klsm/internal/block"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

// testGuard is the reader guard every pool of newDist shares, as all pools
// of one queue share the queue's guard.
var testGuard block.Guard

// newDist returns a Dist drawing from a fresh pool under testGuard.
func newDist[V any](ownerID uint64, k int) *Dist[V] {
	return New(ownerID, k, block.NewPool(&testGuard, item.NewPool[V]()))
}

// drain repeatedly takes the minimum from d (owner-style delete-min) until
// empty, returning the key sequence.
func drain(d *Dist[int]) []uint64 {
	var out []uint64
	for {
		it := d.FindMin()
		if it == nil {
			return out
		}
		if it.TryTake() {
			out = append(out, it.Key())
		}
	}
}

func TestMaxLevelFor(t *testing.T) {
	cases := []struct{ k, want int }{
		{0, 0}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {6, 2}, {7, 3}, {255, 8}, {256, 8}, {511, 9}, {4096, 12},
	}
	for _, c := range cases {
		if got := maxLevelFor(c.k); got != c.want {
			t.Errorf("maxLevelFor(%d) = %d, want %d", c.k, got, c.want)
		}
	}
	// Bound property: 2^maxLevel - 1 <= k for all k.
	for k := 0; k < 10000; k++ {
		m := maxLevelFor(k)
		if (1<<uint(m))-1 > k {
			t.Fatalf("k=%d: capacity bound 2^%d-1 = %d exceeds k", k, m, (1<<uint(m))-1)
		}
	}
}

func TestInsertFindMinSequential(t *testing.T) {
	d := newDist[int](1, -1)
	keys := []uint64{9, 3, 7, 1, 5}
	for _, k := range keys {
		if !d.Insert(item.New(k, 0), nil) {
			t.Fatal("unbounded insert overflowed")
		}
	}
	if !d.CheckInvariants() {
		t.Fatal("invariants violated after inserts")
	}
	got := drain(d)
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drained %v, want %v", got, want)
		}
	}
}

func TestSortedDrainLarge(t *testing.T) {
	d := newDist[int](1, -1)
	src := xrand.NewSeeded(31)
	const n = 5000
	for i := 0; i < n; i++ {
		d.Insert(item.New(src.Uint64()%100000, 0), nil)
	}
	got := drain(d)
	if len(got) != n {
		t.Fatalf("drained %d items, want %d", len(got), n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("drain not sorted")
	}
}

func TestOverflowAtBound(t *testing.T) {
	const k = 7 // maxLevel = 3, local capacity 2^3-1 = 7 items
	var overflowed []*block.Block[int]
	take := func(b *block.Block[int]) { overflowed = append(overflowed, b) }
	d := newDist[int](1, k)
	for i := uint64(0); i < 16; i++ {
		d.Insert(item.New(i, 0), take)
		if live := d.LiveCount(); live > k {
			t.Fatalf("after %d inserts: %d items local, bound %d", i+1, live, k)
		}
		if !d.CheckInvariants() {
			t.Fatalf("invariants violated after insert %d", i)
		}
	}
	if len(overflowed) == 0 {
		t.Fatal("no block overflowed despite exceeding bound")
	}
	// All 16 items must be reachable across local + overflowed blocks.
	total := d.LiveCount()
	for _, b := range overflowed {
		total += b.LiveCount()
	}
	if total != 16 {
		t.Fatalf("items lost: %d reachable of 16", total)
	}
	for _, b := range overflowed {
		if b.Level() < d.MaxLevel() {
			t.Fatalf("overflowed block level %d below threshold %d", b.Level(), d.MaxLevel())
		}
	}
}

func TestKZeroEverythingOverflows(t *testing.T) {
	var got []uint64
	d := newDist[int](1, 0)
	take := func(b *block.Block[int]) {
		for _, it := range b.Items() {
			got = append(got, it.Key())
		}
	}
	for i := uint64(0); i < 8; i++ {
		if d.Insert(item.New(i, 0), take) {
			t.Fatal("k=0 insert kept item locally")
		}
	}
	if !d.Empty() || len(got) != 8 {
		t.Fatalf("k=0: local empty=%v, overflowed %d items", d.Empty(), len(got))
	}
}

func TestBloomOwnership(t *testing.T) {
	const owner = 42
	var blocks []*block.Block[int]
	d := newDist[int](owner, 1) // maxLevel 1: pairs overflow
	take := func(b *block.Block[int]) { blocks = append(blocks, b) }
	for i := uint64(0); i < 8; i++ {
		d.Insert(item.New(i, 0), take)
	}
	for _, b := range blocks {
		if !b.Bloom().MayContain(owner) {
			t.Fatal("overflowed block lost owner ID in bloom filter")
		}
	}
}

func TestSpyCopiesWithoutStealing(t *testing.T) {
	victim := newDist[int](1, -1)
	for i := uint64(0); i < 100; i++ {
		victim.Insert(item.New(i, 0), nil)
	}
	before := victim.LiveCount()
	thief := newDist[int](2, -1)
	if !thief.Spy(victim) {
		t.Fatal("spy of non-empty victim failed")
	}
	if victim.LiveCount() != before {
		t.Fatalf("spy stole items: victim has %d, had %d", victim.LiveCount(), before)
	}
	if thief.LiveCount() != before {
		t.Fatalf("thief copied %d items, want %d", thief.LiveCount(), before)
	}
	if !thief.CheckInvariants() {
		t.Fatal("thief invariants violated after spy")
	}
	// Deleting via the thief marks the shared Items, so the victim's view
	// shrinks too: exactly-once deletion across both references.
	got := drain(thief)
	if len(got) != before {
		t.Fatalf("thief drained %d, want %d", len(got), before)
	}
	if victim.LiveCount() != 0 {
		t.Fatalf("victim still sees %d live items after thief drained all", victim.LiveCount())
	}
}

func TestSpyEmptyVictim(t *testing.T) {
	victim := newDist[int](1, -1)
	thief := newDist[int](2, -1)
	if thief.Spy(victim) {
		t.Fatal("spy of empty victim reported success")
	}
	if thief.Spy(nil) {
		t.Fatal("spy of nil victim reported success")
	}
	if thief.Spy(thief) {
		t.Fatal("self-spy on empty reported success")
	}
}

func TestConsolidateRemovesDeadBlocks(t *testing.T) {
	d := newDist[int](1, -1)
	items := make([]*item.Item[int], 64)
	for i := range items {
		items[i] = item.New(uint64(i), 0)
		d.Insert(items[i], nil)
	}
	// Kill everything but key 63 (in the big block's head).
	for i := 0; i < 63; i++ {
		items[i].TryTake()
	}
	d.Consolidate()
	if !d.CheckInvariants() {
		t.Fatal("invariants violated after consolidate")
	}
	if live := d.LiveCount(); live != 1 {
		t.Fatalf("live = %d, want 1", live)
	}
	it := d.FindMin()
	if it == nil || it.Key() != 63 {
		t.Fatalf("FindMin after consolidate = %v", it)
	}
}

func TestFindMinSkipsTaken(t *testing.T) {
	d := newDist[int](1, -1)
	a, b, c := item.New(1, 0), item.New(2, 0), item.New(3, 0)
	d.Insert(a, nil)
	d.Insert(b, nil)
	d.Insert(c, nil)
	a.TryTake()
	if it := d.FindMin(); it == nil || it.Key() != 2 {
		t.Fatalf("FindMin = %v, want key 2", it)
	}
}

// TestFindMinAfterConsolidateIsReferenced guards against a candidate
// released under its caller. A dead block makes FindMin consolidate; when
// the minimum its scan picked is filter-positive, that consolidation's
// merge claims it and releases its last reference. Returning it would hand
// out an item already back in the item pool — which a concurrent handle
// could recycle while the caller compared its key and claimed it (a bounded
// pop could then fire an item above its bound). The returned item must be
// live and still referenced.
func TestFindMinAfterConsolidateIsReferenced(t *testing.T) {
	ip := item.NewPool[int]()
	d := New(1, -1, block.NewPool(nil, ip)) // nil guard: releases happen at once
	dead := map[uint64]bool{}
	d.SetDrop(func(key uint64, _ int) bool { return dead[key] })

	its := map[uint64]*item.Item[int]{}
	for _, k := range []uint64{40, 30, 20, 10, 50, 1, 60} {
		its[k] = ip.Get(k, int(k))
		d.Insert(its[k], nil)
	}
	// Blocks now: level 2 {40 30 20 10}, level 1 {50 1}, level 0 {60}.
	// Taking 10 and 20 makes the level-2 block shrink onto level 1, where
	// consolidation merges it with {50 1} through the filter; taking 60
	// makes the level-0 block dead, which triggers that consolidation.
	for _, k := range []uint64{10, 20, 60} {
		its[k].TryTake()
	}
	dead[1] = true // 1 is the live minimum the scan picks first

	it := d.FindMin()
	if it == nil {
		t.Fatal("FindMin = nil, want key 30")
	}
	if it.Taken() || it.Refs() == 0 {
		t.Fatalf("FindMin returned key %d taken=%v refs=%d: its last reference was released before the caller could use it",
			it.Key(), it.Taken(), it.Refs())
	}
	if it.Key() != 30 {
		t.Fatalf("FindMin key = %d, want 30", it.Key())
	}
}

// TestConcurrentSpyWhileInserting: one owner keeps inserting and deleting;
// several spies copy concurrently. Checks (under -race) that the publication
// protocol has no races and that spies never crash on torn state; exact-once
// semantics across the copies is enforced by draining everything at the end.
func TestConcurrentSpyWhileInserting(t *testing.T) {
	const items = 20000
	owner := newDist[int](1, -1)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	spiedKeys := make([][]uint64, 3)
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				thief := newDist[int](uint64(10+id), -1)
				if thief.Spy(owner) {
					for {
						it := thief.FindMin()
						if it == nil {
							break
						}
						if it.TryTake() {
							spiedKeys[id] = append(spiedKeys[id], it.Key())
						}
					}
				}
			}
		}(s)
	}

	ownerKeys := make([]uint64, 0, items)
	src := xrand.NewSeeded(8)
	for i := 0; i < items; i++ {
		owner.Insert(item.New(src.Uint64()%1_000_000, 0), nil)
		if i%3 == 0 {
			if it := owner.FindMin(); it != nil && it.TryTake() {
				ownerKeys = append(ownerKeys, it.Key())
			}
		}
	}
	close(stop)
	wg.Wait()
	// Owner drains the rest.
	ownerKeys = append(ownerKeys, drain(owner)...)

	total := len(ownerKeys)
	for _, sk := range spiedKeys {
		total += len(sk)
	}
	if total != items {
		t.Fatalf("exactly-once violated: %d items extracted of %d inserted", total, items)
	}
}

func TestStatsCounters(t *testing.T) {
	d := newDist[int](1, 3) // maxLevel 2
	var overflows int
	for i := uint64(0); i < 32; i++ {
		d.Insert(item.New(i, 0), func(*block.Block[int]) { overflows++ })
	}
	st := d.Stats()
	if st.Merges == 0 {
		t.Fatal("no merges counted")
	}
	if int(st.Overflows) != overflows {
		t.Fatalf("Overflows = %d, callback saw %d", st.Overflows, overflows)
	}
}

func BenchmarkInsertUnbounded(b *testing.B) {
	d := newDist[struct{}](1, -1)
	src := xrand.NewSeeded(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Insert(item.New(src.Uint64(), struct{}{}), nil)
	}
}

func BenchmarkInsertDeletePair(b *testing.B) {
	d := newDist[struct{}](1, -1)
	src := xrand.NewSeeded(1)
	for i := 0; i < 1024; i++ {
		d.Insert(item.New(src.Uint64(), struct{}{}), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Insert(item.New(src.Uint64(), struct{}{}), nil)
		if it := d.FindMin(); it != nil {
			it.TryTake()
		}
	}
}
