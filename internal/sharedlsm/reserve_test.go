package sharedlsm

import (
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"

	"klsm/internal/block"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

// keyBlock returns a private block of p holding fresh items of ip with the
// given keys, owned by handle id, at the smallest level that fits them.
func keyBlock(p *block.Pool[int], ip *item.Pool[int], id uint64, keys ...uint64) *block.Block[int] {
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	b := p.Get(block.LevelForCount(len(sorted)))
	b.AddOwner(id)
	for _, k := range sorted {
		b.Append(ip.Get(k, int(k)))
	}
	return b
}

// startAttempt runs c's Insert of nb up to, not including, its push: the
// attempt's donors are reserved and its results built.
func startAttempt(s *Shared[int], c *Cursor[int], nb *block.Block[int]) {
	nb.AcquireRefs()
	s.refresh(c)
	s.build(c, nb)
}

// reservedBy counts the blocks of s's published array reserved by c.
func reservedBy(s *Shared[int], c *Cursor[int]) int {
	n := 0
	if a := s.Snapshot(); a != nil {
		for _, b := range a.blocks {
			if b.Reserver() == c.al.token {
				n++
			}
		}
	}
	return n
}

// drainAll pops every key left in s through c and returns them.
func drainAll(s *Shared[int], c *Cursor[int]) []uint64 {
	var got []uint64
	for {
		e, ok := s.FindMinSnap(c)
		if !ok {
			return got
		}
		if e.It.TryTakeAt(e.Ver) {
			got = append(got, e.Key)
		}
	}
}

// settleLedger restamps every cursor and drains the limbo through each:
// afterwards every reference a retired block or obligation held is
// released.
func settleLedger(s *Shared[int], cs ...*Cursor[int]) {
	for _, c := range cs {
		c.rec.Stamp()
	}
	for _, c := range cs {
		s.DrainRetired(c)
	}
}

// sameKeys fails t unless got holds exactly the keys of want, once each.
func sameKeys(t *testing.T, got, want []uint64) {
	t.Helper()
	g := append([]uint64(nil), got...)
	w := append([]uint64(nil), want...)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	if len(g) != len(w) {
		t.Fatalf("drained %d keys %v, want %d %v", len(g), g, len(w), w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("drained %v, want %v", g, w)
		}
	}
}

// TestRivalStepsAroundReservedDonors: A builds an insert attempt whose
// cascade consumes every published block and stops before its push. B's
// insert meets A's donors reserved and steps around them, merging nothing,
// and publishes an array that still holds every one of them. A's push then
// loses, and its splice publishes A's finished merge beside B's block
// without reading a merge slot. The counters pin their definitions: the
// spliced attempt's slots count as merged and none as discarded. The
// reference ledger is exact once the limbo drains.
func TestRivalStepsAroundReservedDonors(t *testing.T) {
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, 1)
	cB, pB, ipB := newReclaimCursor(s, 2)
	s.Insert(cA, keyBlock(pA, ipA, 1, 100, 101, 102, 103))
	s.Insert(cA, keyBlock(pA, ipA, 1, 200, 201))
	s.Insert(cA, keyBlock(pA, ipA, 1, 300))
	donors := append([]*block.Block[int](nil), s.Snapshot().blocks...)
	if len(donors) != 3 {
		t.Fatalf("set-up published %d blocks, want levels 2, 1 and 0", len(donors))
	}
	base := cA.MergeSlots.Load()

	nbA := keyBlock(pA, ipA, 1, 400)
	startAttempt(s, cA, nbA)
	if got := len(cA.snapshot.blocks); got != 1 || cA.snapshot.blocks[0].Level() != 3 {
		t.Fatalf("A's cascade left %d blocks, want one level-3 merge", got)
	}
	slots := cA.al.slots
	if slots != 14 {
		t.Fatalf("A's cascade read %d slots, want 1+1 + 2+2 + 4+4", slots)
	}
	for _, d := range donors {
		if d.Reserver() != cA.al.token {
			t.Fatalf("donor at level %d not reserved by A", d.Level())
		}
	}

	s.Insert(cB, keyBlock(pB, ipB, 2, 500))
	if got := cB.MergeSlots.Load(); got != 0 {
		t.Fatalf("B read %d merge slots, want 0: it merged a reserved donor", got)
	}
	pub := s.Snapshot()
	for _, d := range donors {
		if !containsBlock(pub.blocks, d) || d.Reserver() != cA.al.token {
			t.Fatal("B's array lost a donor of A's, or its reservation")
		}
	}
	if !pub.CheckInvariants() {
		t.Fatal("B's array breaks the invariants")
	}

	s.publish(cA, nbA)
	if cA.InsertRetries.Load() != 1 || cA.VoidSplices.Load() != 0 {
		t.Fatalf("A lost %d CASes with %d void splices, want 1 and 0",
			cA.InsertRetries.Load(), cA.VoidSplices.Load())
	}
	if got := cA.MergeSlots.Load() - base; got != slots {
		t.Fatalf("A's spliced insert added %d merge slots, want its cascade's %d", got, slots)
	}
	if got := cA.DiscardedSlots.Load(); got != 0 {
		t.Fatalf("A discarded %d slots, want 0", got)
	}
	pub = s.Snapshot()
	if len(pub.blocks) != 2 || pub.blocks[0].Level() != 3 || pub.blocks[1].Level() != 0 {
		t.Fatalf("spliced array has %d blocks, want A's level-3 merge and B's level-0 block", len(pub.blocks))
	}
	if !pub.CheckInvariants() || reservedBy(s, cA)+reservedBy(s, cB) != 0 {
		t.Fatal("the spliced array breaks the invariants or keeps a reservation")
	}
	for _, b := range pub.blocks {
		for _, it := range b.Items() {
			if it.Refs() != 1 {
				t.Fatalf("key %d holds %d references, want 1", it.Key(), it.Refs())
			}
		}
	}

	sameKeys(t, drainAll(s, cB), []uint64{100, 101, 102, 103, 200, 201, 300, 400, 500})
	settleLedger(s, cA, cB)
	if got := ipA.Puts() + ipB.Puts(); got != 9 {
		t.Fatalf("released %d items, want all 9", got)
	}
	if pA.Stats().ItemsLostLive+pB.Stats().ItemsLostLive != 0 || s.LimboLen() != 0 {
		t.Fatal("a live item was released, or the limbo did not drain")
	}
}

// TestConsolidationDiscardsLostPush: a consolidation pass whose push loses
// is discarded, and its reservations with it. A's pass shrink-copies a
// published block whose tail was taken and merges the copy with the
// level-0 block below it. B inserts from inside that merge's Drop callback:
// it steps around both blocks A reserved and publishes first. A's push then
// loses; the pass counts its slots as discarded and leaves no block
// reserved, and the keys and the reference ledger come out exact.
func TestConsolidationDiscardsLostPush(t *testing.T) {
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, 1)
	cB, pB, ipB := newReclaimCursor(s, 2)
	rival := false
	s.SetDrop(func(uint64, int) bool {
		if cA.al.slots > 0 && !rival {
			rival = true
			s.Insert(cB, keyBlock(pB, ipB, 2, 50))
		}
		return false
	})
	s.Insert(cA, keyBlock(pA, ipA, 1, 10, 20, 30, 40))
	s.Insert(cA, keyBlock(pA, ipA, 1, 5))
	x := s.Snapshot().blocks[0]
	for i := 1; i < 4; i++ {
		x.Item(i).TryTake() // 30, 20 and 10: the tail, which leaves x underfull
	}
	base := cA.MergeSlots.Load()

	s.refresh(cA)
	s.consolidate(cA, true)
	if !rival || cB.MergeSlots.Load() != 0 {
		t.Fatal("B did not publish during A's merge, or merged a block A reserved")
	}
	if cA.ConsolidatePushes.Load() != 0 || cA.DiscardedSlots.Load() != 3 || cA.MergeSlots.Load()-base != 3 {
		t.Fatalf("A's pass: %d pushes, %d merged and %d discarded slots; want 0, 3 (the shrink copy's 1 and the merge's 2), 3",
			cA.ConsolidatePushes.Load(), cA.MergeSlots.Load()-base, cA.DiscardedSlots.Load())
	}
	if pub := s.Snapshot(); len(pub.blocks) != 3 || !containsBlock(pub.blocks, x) || reservedBy(s, cA) != 0 {
		t.Fatal("want B's array, x and the key-5 block beside B's block, and none of them reserved")
	}

	s.SetDrop(nil)
	sameKeys(t, drainAll(s, cB), []uint64{5, 40, 50})
	settleLedger(s, cA, cB)
	if got := ipA.Puts() + ipB.Puts(); got != 6 {
		t.Fatalf("released %d items, want all 6", got)
	}
	if pA.Stats().ItemsLostLive+pB.Stats().ItemsLostLive != 0 || s.LimboLen() != 0 {
		t.Fatal("a live item was released, or the limbo did not drain")
	}
}

// levelBound fails t unless a holds non-increasing levels, at most one
// block per level that no attempt reserves, and at most maxReserved
// reserved blocks: rule 4's bound on a published array.
func levelBound(t *testing.T, a *BlockArray[int], maxReserved int) {
	t.Helper()
	if a == nil {
		return
	}
	prev, free, reserved := block.MaxLevel+1, -1, 0
	for _, b := range a.blocks {
		if b.Level() > prev {
			t.Fatalf("levels increase: %d after %d", b.Level(), prev)
		}
		prev = b.Level()
		if b.Reserver() != 0 {
			reserved++
			continue
		}
		if b.Level() == free {
			t.Fatalf("two unreserved blocks at level %d", free)
		}
		free = b.Level()
	}
	if reserved > maxReserved {
		t.Fatalf("%d reserved blocks, want at most %d", reserved, maxReserved)
	}
}

// TestStalledReserverBlocksNoOne: A's attempt reserves its donors and
// stalls before its push. Every one of B's 1000 inserts and pops completes
// meanwhile, pops draw from A's donors too, and each array B publishes
// stays within rule 4's bound. A's late push then splices, and every key is
// drained exactly once.
func TestStalledReserverBlocksNoOne(t *testing.T) {
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, 1)
	cB, pB, ipB := newReclaimCursor(s, 2)
	var want []uint64
	for k := uint64(1); k <= 7; k++ {
		s.Insert(cA, keyBlock(pA, ipA, 1, k*1000))
		want = append(want, k*1000)
	}
	nbA := keyBlock(pA, ipA, 1, 8000)
	want = append(want, 8000)
	startAttempt(s, cA, nbA)
	donors := reservedBy(s, cA)
	if donors != 3 {
		t.Fatalf("A reserved %d donors, want levels 2, 1 and 0", donors)
	}

	rng := xrand.NewSeeded(31)
	var got []uint64
	for i := 0; i < 1000; i++ {
		if rng.Intn(2) == 0 {
			k := 10000 + uint64(i)
			s.Insert(cB, keyBlock(pB, ipB, 2, k))
			want = append(want, k)
		} else if e, ok := s.FindMinSnap(cB); ok && e.It.TryTakeAt(e.Ver) {
			got = append(got, e.Key)
		}
		levelBound(t, s.Snapshot(), donors)
		if reservedBy(s, cA) != donors {
			t.Fatalf("op %d: A's donors lost their reservations", i)
		}
	}

	s.publish(cA, nbA)
	if cA.VoidSplices.Load() != 0 {
		t.Fatal("A's late push redid its cascade")
	}
	levelBound(t, s.Snapshot(), 0)
	got = append(got, drainAll(s, cB)...)
	sameKeys(t, got, want)
	settleLedger(s, cA, cB)
	if got := ipA.Puts() + ipB.Puts(); got != int64(len(want)) {
		t.Fatalf("released %d items, want %d", got, len(want))
	}
	if pA.Stats().ItemsLostLive+pB.Stats().ItemsLostLive != 0 {
		t.Fatal("a live item was released")
	}
}

// TestSpliceRejectsRecycledDonor: the splice's reservation check is its
// ABA guard. Here A's donor loses its reservation (as no protocol path
// allows), is merged away by B, recycled through Pool.Put and republished
// by B at the same address with a new key. A's splice must find the donor
// unreserved and redo its insert instead of dropping B's block; the
// discarded attempt's slots count as discarded.
func TestSpliceRejectsRecycledDonor(t *testing.T) {
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, 1)
	cB, pB, ipB := newReclaimCursor(s, 2)
	s.Insert(cA, keyBlock(pA, ipA, 1, 100))
	d := s.Snapshot().blocks[0]
	nbA := keyBlock(pA, ipA, 1, 200)
	startAttempt(s, cA, nbA)
	if d.Reserver() != cA.al.token || cA.al.slots != 2 {
		t.Fatal("A's attempt did not reserve and merge the published block")
	}

	d.Unreserve(cA.al.token)
	s.Insert(cB, keyBlock(pB, ipB, 2, 300))
	if containsBlock(s.Snapshot().blocks, d) {
		t.Fatal("B did not merge the unreserved donor away")
	}
	cA.rec.Stamp()
	cB.rec.Stamp()
	s.DrainRetired(cB) // recycles d into B's pool
	if d.Reserver() != 0 {
		t.Fatal("Pool.Put left the reservation word set")
	}
	r := pB.Get(0)
	if r != d {
		t.Fatal("B's pool did not hand the recycled donor back")
	}
	r.AddOwner(2)
	r.Append(ipB.Get(400, 400))
	s.Insert(cB, r)
	if !containsBlock(s.Snapshot().blocks, d) {
		t.Fatal("the recycled shell is not republished")
	}

	s.publish(cA, nbA)
	sameKeys(t, drainAll(s, cA), []uint64{100, 200, 300, 400})
	if cA.InsertRetries.Load() != 1 || cA.VoidSplices.Load() != 1 {
		t.Fatalf("A lost %d CASes with %d void splices, want 1 and 1",
			cA.InsertRetries.Load(), cA.VoidSplices.Load())
	}
	if got := cA.DiscardedSlots.Load(); got != 2 {
		t.Fatalf("A discarded %d slots, want the redone attempt's 2", got)
	}
	settleLedger(s, cA, cB)
	if got := ipA.Puts() + ipB.Puts(); got != 4 {
		t.Fatalf("released %d items, want 4", got)
	}
	if pA.Stats().ItemsLostLive+pB.Stats().ItemsLostLive != 0 {
		t.Fatal("a live item was released")
	}
}

// TestPurgeSkipsReservedBlocks: Purge copies the blocks holding dead items,
// but not one an insert attempt has reserved: that attempt consumes it.
func TestPurgeSkipsReservedBlocks(t *testing.T) {
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, 1)
	cB, _, ipB := newReclaimCursor(s, 2)
	s.Insert(cA, keyBlock(pA, ipA, 1, 10, 20, 30, 40))
	s.Insert(cA, keyBlock(pA, ipA, 1, 50, 60))
	x, y := s.Snapshot().blocks[0], s.Snapshot().blocks[1]
	x.Item(1).TryTake() // 30: dead mid-block, which only a copy removes
	y.Item(0).TryTake() // 60
	nbA := keyBlock(pA, ipA, 1, 1, 2, 3, 4)
	startAttempt(s, cA, nbA)
	if x.Reserver() != cA.al.token || y.Reserver() != 0 {
		t.Fatal("A's attempt should reserve the level-2 block only")
	}

	s.Purge(cB)
	pub := s.Snapshot()
	if !containsBlock(pub.blocks, x) || x.Filled() != 4 {
		t.Fatal("Purge consumed or rewrote the reserved block")
	}
	if containsBlock(pub.blocks, y) {
		t.Fatal("Purge kept the unreserved block with a dead item")
	}
	if got := cB.MergeSlots.Load(); got != 3 {
		t.Fatalf("Purge read %d slots, want 3: the unreserved block's copy and its shrink", got)
	}

	s.publish(cA, nbA)
	if cA.VoidSplices.Load() != 0 || reservedBy(s, cA) != 0 {
		t.Fatal("A's insert did not splice cleanly")
	}
	sameKeys(t, drainAll(s, cB), []uint64{1, 2, 3, 4, 10, 20, 40, 50})
	settleLedger(s, cA, cB)
	if got := ipA.Puts() + ipB.Puts(); got != 10 {
		t.Fatalf("released %d items, want 10", got)
	}
}

// TestNoReservationSurvivesOperations: reservations never outlive the
// operation that took them. Cursors insert, pop and purge concurrently;
// once they have returned, and again after each has been retired as
// core's Handle.Close retires it, no published block is reserved. A Drop
// callback that panics mid-merge leaves no reservation behind either, and
// the cursor works afterwards.
func TestNoReservationSurvivesOperations(t *testing.T) {
	const workers = 4
	ops := 3000
	if testing.Short() {
		ops = 500
	}
	s := New[int](16, true)
	type side struct {
		c  *Cursor[int]
		p  *block.Pool[int]
		ip *item.Pool[int]
	}
	sides := make([]side, workers)
	for w := range sides {
		c, p, ip := newReclaimCursor(s, uint64(w)+1)
		sides[w] = side{c, p, ip}
	}
	var wg sync.WaitGroup
	var inserted, taken [workers]int
	for w := range sides {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sd := sides[w]
			rng := xrand.NewSeeded(uint64(w)*7919 + 3)
			for i := 0; i < ops; i++ {
				switch r := rng.Intn(100); {
				case r < 50:
					n := 1 << rng.Intn(4)
					keys := make([]uint64, n)
					for j := range keys {
						keys[j] = rng.Uint64n(1 << 30)
					}
					s.Insert(sd.c, keyBlock(sd.p, sd.ip, uint64(w)+1, keys...))
					inserted[w] += n
				case r < 99:
					if e, ok := s.FindMinSnap(sd.c); ok && e.It.TryTakeAt(e.Ver) {
						taken[w]++
					}
				default:
					s.Purge(sd.c)
				}
			}
		}(w)
	}
	wg.Wait()
	noReservation := func(when string) {
		t.Helper()
		if a := s.Snapshot(); a != nil {
			for _, b := range a.blocks {
				if b.Reserver() != 0 {
					t.Fatalf("%s: a published level-%d block is reserved", when, b.Level())
				}
			}
		}
		for _, sd := range sides {
			if len(sd.c.al.held) != 0 {
				t.Fatalf("%s: a cursor holds %d reservations", when, len(sd.c.al.held))
			}
		}
	}
	noReservation("after the run")
	for _, sd := range sides {
		s.DrainRetired(sd.c)
		domainOf(s).Withdraw(sd.c.rec)
	}
	noReservation("after closing")
	got := drainAll(s, newCursor(s, workers+1))
	total := len(got)
	for w := range sides {
		total += taken[w]
		total -= inserted[w]
	}
	if total != 0 {
		t.Fatalf("conservation off by %d", total)
	}

	// A Drop callback that panics in the middle of a cascade.
	s2 := New[int](4, true)
	armed := false
	s2.SetDrop(func(key uint64, _ int) bool {
		if armed && key == 7 {
			panic("drop")
		}
		return false
	})
	c, p, ip := newReclaimCursor(s2, 1)
	for _, k := range []uint64{1, 2, 3, 4, 5, 6, 7} {
		s2.Insert(c, keyBlock(p, ip, 1, k))
	}
	armed = true
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the Drop callback did not panic")
			}
		}()
		s2.Insert(c, keyBlock(p, ip, 1, 8))
	}()
	armed = false
	for _, b := range s2.Snapshot().blocks {
		if b.Reserver() != 0 {
			t.Fatal("a reservation outlived the panicking insert")
		}
	}
	s2.Insert(c, keyBlock(p, ip, 1, 9))
	sameKeys(t, drainAll(s2, c), []uint64{1, 2, 3, 4, 5, 6, 7, 9})
}

// TestQuiescentConsolidationStrictLevels: equal levels appear only beside
// reserved blocks. Once the reserving attempt is discarded they are two
// unreserved blocks of one level, which CheckInvariants rejects, and the
// next consolidation, with no reservation in flight, merges them back to
// strictly decreasing levels.
func TestQuiescentConsolidationStrictLevels(t *testing.T) {
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, 1)
	cB, pB, ipB := newReclaimCursor(s, 2)
	s.Insert(cA, keyBlock(pA, ipA, 1, 10, 11))
	s.Insert(cA, keyBlock(pA, ipA, 1, 20))
	startAttempt(s, cA, keyBlock(pA, ipA, 1, 30))
	s.Insert(cB, keyBlock(pB, ipB, 2, 40))
	s.Insert(cB, keyBlock(pB, ipB, 2, 50))
	s.refresh(cA) // A abandons its attempt: its reservations clear
	a := s.Snapshot()
	if reservedBy(s, cA) != 0 || a.CheckInvariants() {
		t.Fatal("want equal unreserved levels beside the former donors")
	}
	s.refresh(cB)
	s.consolidate(cB, true)
	a = s.Snapshot()
	for i := 1; i < len(a.blocks); i++ {
		if a.blocks[i].Level() >= a.blocks[i-1].Level() {
			t.Fatalf("levels not strictly decreasing after a quiescent consolidation: %d then %d",
				a.blocks[i-1].Level(), a.blocks[i].Level())
		}
	}
	if !a.CheckInvariants() {
		t.Fatal("consolidated array breaks the invariants")
	}
	sameKeys(t, drainAll(s, cB), []uint64{10, 11, 20, 40, 50})
}

// BenchmarkSharedInsertContended: two goroutines insert level-8 blocks
// into a shared k-LSM prefilled with about 10^5 items, each popping as
// many keys through FindMinSnap/TryTakeAt as it inserts. It reports the
// item slots merges and copies read per insert and the share of them
// discarded with lost attempts. KLSM_BENCH_PREFILL overrides the prefill.
func BenchmarkSharedInsertContended(b *testing.B) {
	const (
		workers = 2
		level   = 8
		per     = 1 << level
	)
	prefill := 100000
	if v := os.Getenv("KLSM_BENCH_PREFILL"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			b.Fatalf("KLSM_BENCH_PREFILL=%q", v)
		}
		prefill = n
	}
	s := New[int](256, true)
	type side struct {
		c   *Cursor[int]
		p   *block.Pool[int]
		ip  *item.Pool[int]
		rng *xrand.Source
	}
	sides := make([]side, workers)
	for w := range sides {
		c, p, ip := newReclaimCursor(s, uint64(w)+1)
		sides[w] = side{c, p, ip, xrand.NewSeeded(uint64(w)*131 + 5)}
	}
	fill := func(sd side, id uint64) *block.Block[int] {
		keys := make([]uint64, per)
		for j := range keys {
			keys[j] = sd.rng.Uint64n(1 << 40)
		}
		return keyBlock(sd.p, sd.ip, id, keys...)
	}
	for n := 0; n < prefill; n += per {
		s.Insert(sides[0].c, fill(sides[0], 1))
	}
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range sides {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sd := sides[w]
			for i := w; i < b.N; i += workers {
				s.Insert(sd.c, fill(sd, uint64(w)+1))
				for popped := 0; popped < per; {
					e, ok := s.FindMinSnap(sd.c)
					if !ok {
						break
					}
					if e.It.TryTakeAt(e.Ver) {
						popped++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	var merged, discarded int64
	for _, sd := range sides {
		merged += sd.c.MergeSlots.Load()
		discarded += sd.c.DiscardedSlots.Load()
	}
	b.ReportMetric(float64(merged)/float64(b.N), "mergeslots/insert")
	if merged > 0 {
		b.ReportMetric(float64(discarded)/float64(merged), "discarded/merged")
	}
}
