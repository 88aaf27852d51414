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

// TestInsertReturnsMergedAwayLineageBlock: a block that arrives carrying
// its lineage's transferred references (a DistLSM overflow) and is merged
// away inside the winning attempt must be handed back to the caller, NOT
// recycled here — an ungated release could reclaim an item while a spy
// still reads it through the caller's not-yet-unlinked donor blocks. An
// entry-acquired block (the shared side took its references itself) is
// recycled internally as before.
func TestInsertReturnsMergedAwayLineageBlock(t *testing.T) {
	var g block.Guard
	s := New[int](4, true)
	c, p, ip := newReclaimCursor(s, &g, 1)

	// Seed the array so the next insert triggers a level-collision merge.
	seed := p.Get(0)
	seed.AddOwner(1)
	seed.Append(ip.Get(50, 50))
	if got := s.Insert(c, seed); got != nil {
		t.Fatalf("entry-acquired seed came back (%p)", got)
	}

	// A lineage-carrying block: references acquired before entry, as a
	// DistLSM overflow block's are (transferred from its donors).
	nb := p.Get(0)
	nb.AddOwner(1)
	it := ip.Get(10, 10)
	nb.Append(it)
	nb.AcquireRefs()
	if it.Refs() != 1 {
		t.Fatalf("refs = %d before insert", it.Refs())
	}
	got := s.Insert(c, nb)
	if got != nb {
		t.Fatalf("merged-away lineage block not returned (got %p, want %p)", got, nb)
	}
	if !nb.HoldsRefs() {
		t.Fatal("returned block no longer holds its references")
	}
	// The merged shared block acquired its own reference post-CAS.
	if it.Refs() != 2 {
		t.Fatalf("refs = %d after merge, want 2 (lineage + shared copy)", it.Refs())
	}
	// The caller retires it after its unlink stores; quiescent guard
	// releases immediately and exactly once.
	p.Retire(got)
	if it.Refs() != 1 {
		t.Fatalf("refs = %d after caller retire, want 1", it.Refs())
	}
}
