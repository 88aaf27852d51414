package sharedlsm

import (
	"testing"

	"klsm/internal/block"
	"klsm/internal/distlsm"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

// newReclaimCursor builds a cursor wired to a fresh pool registered in s's
// domain, mirroring what core does per handle, and returns the pool's item
// pool too.
func newReclaimCursor(s *Shared[int], id uint64) (*Cursor[int], *block.Pool[int], *item.Pool[int]) {
	ip := item.NewPool[int]()
	p := block.NewPool(domainOf(s).Register(), ip)
	return s.NewCursor(id, xrand.NewSeeded(id*77+13), p), p, ip
}

// TestLimboOverflowReleasesItemsExactlyOnce covers the limbo-overflow drop
// path: a pinned cursor keeps the epoch scheme from draining, the limbo
// list grows to hundreds of blocks, and once the pin lifts, every deleted
// item must still be released to the item pool exactly once — including the
// items of the blocks parked longest.
func TestLimboOverflowReleasesItemsExactlyOnce(t *testing.T) {
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, 1)
	cB, _, _ := newReclaimCursor(s, 2)

	// Pin: cB observes the current epoch and then goes idle, so nothing
	// retired at later epochs may drain while its stamp stays behind. (A
	// cursor that has never loaded a non-nil shared pointer carries the
	// inactive stamp and pins nothing, so seed one insert first.)
	const n = 600
	rng := xrand.NewSeeded(99)
	keys := make(map[uint64]bool, n)
	seed := rng.Uint64n(1 << 40)
	keys[seed] = true
	sb := pA.Get(0)
	sb.AddOwner(1)
	sb.Append(ipA.Get(seed, int(seed)))
	s.Insert(cA, sb)
	s.FindMin(cB)

	// Phase 1: churn through cA. Every winning push that merges blocks away
	// parks the superseded ones in limbo, where the pin keeps them.
	for i := 1; i < n; i++ {
		k := rng.Uint64n(1 << 40)
		for keys[k] {
			k = rng.Uint64n(1 << 40)
		}
		keys[k] = true
		b := pA.Get(0)
		b.AddOwner(1)
		b.Append(ipA.Get(k, int(k)))
		s.Insert(cA, b)
	}

	// Phase 2: take everything, letting FindMin's consolidations push the
	// dead structure into limbo too.
	taken := int64(0)
	for {
		it := s.FindMin(cA)
		if it == nil {
			break
		}
		if it.TryTake() {
			taken++
		}
	}
	if taken != n {
		t.Fatalf("took %d of %d", taken, n)
	}

	parked := s.LimboLen()
	if parked <= 256 {
		t.Fatalf("limbo holds %d blocks, want > 256 (the old drop bound) — overflow path not exercised", parked)
	}
	if leaked := s.LimboLeaked(); leaked != 0 {
		t.Fatalf("%d blocks leaked below the reclaim cap", leaked)
	}
	if got := ipA.Puts(); got != 0 {
		// Nothing may release while the pin holds: a release here would
		// mean an item was reclaimed while cB could still reach its block.
		t.Fatalf("%d items released under an active epoch pin", got)
	}

	// Phase 3: lift the pin and drain. Every taken item's last block
	// reference dies now, so the ledger must balance exactly.
	cB.rec.Stamp()
	s.DrainRetired(cA)
	if got := ipA.Puts(); got != taken {
		t.Fatalf("items released = %d, want exactly %d", got, taken)
	}
	if st := pA.Stats(); st.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero", st.ItemsLostLive)
	}
	if s.LimboLen() != 0 {
		t.Fatalf("limbo still holds %d blocks after drain", s.LimboLen())
	}
}

// TestInsertDefersMergedAwayLineageObligations: a DistLSM overflow block is
// merged from blocks the DistLSM keeps published until its size store,
// after Insert returns. The DistLSM's lineage references to the items must
// outlast every reader pinned before that store, whatever cursors do with
// the block meanwhile. Here, inside the overflow, a rival cursor merges the
// published block away and owes one of its items, taken in between; then a
// spy pins and loads the DistLSM's old slot. Once the inserting cursor has
// refreshed past the rival's win, the rival's drain may release only the
// shared k-LSM's reference: the item must survive until the spy unpins.
func TestInsertDefersMergedAwayLineageObligations(t *testing.T) {
	s := New[int](1, true)
	cA, pA, ipA := newReclaimCursor(s, 1)
	cB, _, ipB := newReclaimCursor(s, 2)
	spy := domainOf(s).Register()
	// k = 1: the DistLSM keeps level-0 blocks only, so its second insert
	// merges the first item's block into a level-1 block that overflows.
	d := distlsm.New[int](1, 1, pA)
	x, y := ipA.Get(10, 10), ipA.Get(20, 20)
	var seen *block.Block[int]
	overflow := func(b *block.Block[int]) {
		s.Insert(cA, b)
		x.TryTake()
		s.Purge(cB) // copies b without x: the rival's win owes x
		if containsBlock(s.Snapshot().blocks, b) {
			t.Fatal("the rival did not merge the overflow block away")
		}
		spy.Pin()
		seen = d.BlockAt(0) // the merged-away block, still published
	}
	d.Insert(x, overflow)
	if d.Insert(y, overflow) {
		t.Fatal("the second insert stayed local")
	}
	if seen == nil || seen.Item(0) != x {
		t.Fatal("the spy did not load the merged-away block holding x")
	}

	s.FindMin(cA) // the inserting cursor refreshes past the rival's win
	s.DrainRetired(cB)
	if x.Refs() < 1 || ipA.Puts()+ipB.Puts() != 0 {
		t.Fatalf("x released under a spy pinned before the DistLSM's unlink (refs %d, puts %d)",
			x.Refs(), ipA.Puts()+ipB.Puts())
	}
	spy.Unpin()
	pA.DrainLimbo()
	s.DrainRetired(cB)
	if x.Refs() != 0 || ipA.Puts()+ipB.Puts() != 1 {
		t.Fatalf("after the unpin: x refs %d, puts %d, want 0 and 1", x.Refs(), ipA.Puts()+ipB.Puts())
	}
	if y.Refs() != 1 {
		t.Fatalf("survivor refs = %d, want 1 (the shared copy's)", y.Refs())
	}
}

// TestFailedPushLeavesDonorsUntouched: a rival cursor publishes between a
// cursor's refresh and its push. The loser's attempt wrote nothing to its
// donors — their items keep their counts — and its fresh blocks recycle
// without releasing anything; the retry then wins, and the surviving items'
// counts are the same before and after its merge.
func TestFailedPushLeavesDonorsUntouched(t *testing.T) {
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, 1)
	cB, pB, ipB := newReclaimCursor(s, 2)

	// Published donor: a level-1 block whose minimum is taken, so an
	// attempt's shrink copies it and owes the trimmed slot.
	donor := pA.Get(1)
	donor.AddOwner(1)
	live, dead := ipA.Get(60, 60), ipA.Get(40, 40)
	donor.Append(live)
	donor.Append(dead)
	s.Insert(cA, donor)
	dead.TryTake()

	nb := pA.Get(1)
	nb.AddOwner(1)
	mine := []*item.Item[int]{ipA.Get(30, 30), ipA.Get(20, 20)}
	nb.Append(mine[0])
	nb.Append(mine[1])
	nb.AcquireRefs()

	// A's attempt, stopped between its refresh and its push.
	s.refresh(cA)
	cA.snapshot.insert(nb, s.drop, &cA.al)
	if len(cA.al.fresh) == 0 || len(cA.al.owed) != 1 {
		t.Fatalf("attempt built %d fresh blocks and %d obligations, want some and 1", len(cA.al.fresh), len(cA.al.owed))
	}
	// The rival publishes first.
	rival := pB.Get(0)
	rival.AddOwner(2)
	rival.Append(ipB.Get(70, 70))
	s.Insert(cB, rival)
	if s.push(cA) {
		t.Fatal("push won against a moved shared pointer")
	}
	if live.Refs() != 1 || dead.Refs() != 1 {
		t.Fatalf("failed push moved donor counts: live %d, dead %d, want 1 and 1", live.Refs(), dead.Refs())
	}
	// The retry's refresh recycles the loser's fresh blocks: no release.
	s.refresh(cA)
	if len(cA.al.fresh) != 0 || len(cA.al.owed) != 0 || !cA.pending.Empty() {
		t.Fatal("refresh kept the failed attempt's blocks or obligations")
	}
	if ipA.Puts()+ipB.Puts() != 0 || live.Refs() != 1 || dead.Refs() != 1 {
		t.Fatalf("discard released: puts %d, live %d, dead %d", ipA.Puts()+ipB.Puts(), live.Refs(), dead.Refs())
	}

	s.Insert(cA, nb)
	if containsBlock(s.Snapshot().blocks, nb) {
		t.Fatal("retry published nb instead of merging it")
	}
	for _, it := range append(mine, live) {
		if it.Refs() != 1 {
			t.Fatalf("survivor %d refs = %d after the winning merge, want 1", it.Key(), it.Refs())
		}
	}
	// The rival's win owed the dead slot; it releases exactly once.
	cA.rec.Stamp()
	cB.rec.Stamp()
	s.DrainRetired(cB)
	s.DrainRetired(cA)
	if got := ipA.Puts() + ipB.Puts(); got != 1 || dead.Refs() != 0 {
		t.Fatalf("released %d items (dead refs %d), want exactly the dead one", got, dead.Refs())
	}
}
