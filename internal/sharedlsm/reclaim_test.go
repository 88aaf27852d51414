package sharedlsm

import (
	"testing"

	"klsm/internal/block"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

// newReclaimCursor builds a cursor wired to a fresh pool sharing guard g,
// mirroring what core does per handle, and returns the pool's item pool too.
func newReclaimCursor(s *Shared[int], g *block.Guard, id uint64) (*Cursor[int], *block.Pool[int], *item.Pool[int]) {
	ip := item.NewPool[int]()
	p := block.NewPool(g, ip)
	return s.NewCursor(id, xrand.NewSeeded(id*77+13), p), p, ip
}

// TestLimboOverflowReleasesItemsExactlyOnce covers the limbo-overflow drop
// path: a pinned cursor keeps the epoch scheme from draining, the limbo
// list grows to hundreds of blocks, and once the pin lifts, every deleted
// item must still be released to the item pool exactly once — including the
// items of the blocks parked longest.
func TestLimboOverflowReleasesItemsExactlyOnce(t *testing.T) {
	var g block.Guard
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, &g, 1)
	cB, _, _ := newReclaimCursor(s, &g, 2)

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
	s.RefreshStamp(cB)
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

// TestInsertDefersMergedAwayLineageObligations: a block that arrives
// carrying its lineage's transferred references (a DistLSM overflow) and is
// merged away inside the winning attempt leaves obligations — here its
// trimmed minimum — whose items the caller's not-yet-unlinked DistLSM
// blocks may still reach. They must not release before the inserting
// cursor's next shared operation (the caller unlinks first), nor while a
// reader holds the guard; the survivor's count never moves.
func TestInsertDefersMergedAwayLineageObligations(t *testing.T) {
	var g block.Guard
	s := New[int](4, true)
	c, p, ip := newReclaimCursor(s, &g, 1)

	// Seed the array so the next insert triggers a level-collision merge.
	seed := p.Get(0)
	seed.AddOwner(1)
	seed.Append(ip.Get(50, 50))
	s.Insert(c, seed)

	// A lineage-carrying level-1 block whose minimum is taken: references
	// acquired before entry, as a DistLSM overflow block's are (transferred
	// from its donors). Insert's shrink trims the minimum and copies the
	// survivor, which then merges with the seed: nb is merged away.
	nb := p.Get(1)
	nb.AddOwner(1)
	survivor, dead := ip.Get(20, 20), ip.Get(10, 10)
	nb.Append(survivor)
	nb.Append(dead)
	nb.AcquireRefs()
	dead.TryTake()
	s.Insert(c, nb)
	if containsBlock(s.Snapshot().blocks, nb) {
		t.Fatal("nb was published, not merged away")
	}
	if survivor.Refs() != 1 {
		t.Fatalf("survivor refs = %d after the merge, want 1 (transferred)", survivor.Refs())
	}
	if dead.Refs() != 1 || ip.Puts() != 0 {
		t.Fatalf("obligation released inside Insert (refs %d, puts %d), before the caller's unlink", dead.Refs(), ip.Puts())
	}

	// The caller has unlinked its DistLSM blocks; a spy that started
	// earlier still reads them. The cursor's next operation parks the
	// obligation, but the busy guard keeps it.
	g.Enter()
	s.FindMin(c)
	if dead.Refs() != 1 {
		t.Fatalf("obligation released under an active guard (refs %d)", dead.Refs())
	}
	g.Exit()
	s.DrainRetired(c)
	if dead.Refs() != 0 || ip.Puts() != 1 {
		t.Fatalf("after the unlink and quiescence: refs %d, puts %d, want 0 and 1", dead.Refs(), ip.Puts())
	}
	if survivor.Refs() != 1 {
		t.Fatalf("survivor refs = %d, want 1", survivor.Refs())
	}
}

// TestFailedPushLeavesDonorsUntouched: a rival cursor publishes between a
// cursor's refresh and its push. The loser's attempt wrote nothing to its
// donors — their items keep their counts — and its fresh blocks recycle
// without releasing anything; the retry then wins, and the surviving items'
// counts are the same before and after its merge.
func TestFailedPushLeavesDonorsUntouched(t *testing.T) {
	var g block.Guard
	s := New[int](4, true)
	cA, pA, ipA := newReclaimCursor(s, &g, 1)
	cB, pB, ipB := newReclaimCursor(s, &g, 2)

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
	if len(cA.al.fresh) != 0 || len(cA.al.owed) != 0 || cA.pendingOwed.len() != 0 {
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
	s.RefreshStamp(cA)
	s.RefreshStamp(cB)
	s.DrainRetired(cB)
	s.DrainRetired(cA)
	if got := ipA.Puts() + ipB.Puts(); got != 1 || dead.Refs() != 0 {
		t.Fatalf("released %d items (dead refs %d), want exactly the dead one", got, dead.Refs())
	}
}
