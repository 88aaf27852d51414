package block

import (
	"testing"

	"klsm/internal/item"
)

// newReclaimPool returns a guarded pool plus its item pool.
func newReclaimPool(g *Guard) (*Pool[int], *item.Pool[int]) {
	ip := item.NewPool[int]()
	return NewPool(g, ip), ip
}

// fillTaken builds a level-l "published" block from p (references acquired,
// as a lineage does at its entry point) holding n freshly taken items.
func fillTaken(p *Pool[int], ip *item.Pool[int], l, n int) *Block[int] {
	b := p.Get(l)
	for i := n; i > 0; i-- {
		b.Append(ip.Get(uint64(i), i))
	}
	b.AcquireRefs()
	for _, it := range b.Items() {
		it.TryTake()
	}
	return b
}

func TestAcquireRefsAtLineageEntry(t *testing.T) {
	p, ip := newReclaimPool(nil)
	b := p.Get(2)
	it := ip.Get(1, 1)
	b.Append(it)
	// Private blocks hold no references until the lineage entry point.
	if it.Refs() != 0 {
		t.Fatalf("refs = %d before acquisition", it.Refs())
	}
	b.AcquireRefs()
	if it.Refs() != 1 || !b.HoldsRefs() {
		t.Fatalf("refs = %d, holds=%v after AcquireRefs", it.Refs(), b.HoldsRefs())
	}
	// Idempotent: a block carried across snapshots acquires only once.
	b.AcquireRefs()
	if it.Refs() != 1 {
		t.Fatalf("refs = %d after second AcquireRefs", it.Refs())
	}
}

// TestMergeTransfersRefs: a transfer merge moves the donors' references to
// the result without a single count changing for surviving items, hands the
// filtered item's reference to the caller's obligations, and only reads its
// donors — the caller marks them donated, after which their release is a
// no-op.
func TestMergeTransfersRefs(t *testing.T) {
	p, ip := newReclaimPool(nil)
	b1, b2 := p.Get(1), p.Get(1)
	lives := []*item.Item[int]{ip.Get(40, 0), ip.Get(30, 0), ip.Get(20, 0)}
	dead := ip.Get(10, 0)
	b1.Append(lives[0])
	b1.Append(lives[1])
	b2.Append(lives[2])
	b2.Append(dead)
	b1.AcquireRefs()
	b2.AcquireRefs()
	dead.TryTake()

	var owed []*item.Item[int]
	m := MergeTransferIn(p, b1, b2, nil, &owed)
	for i, it := range lives {
		if it.Refs() != 1 {
			t.Fatalf("live item %d has %d refs after transfer merge, want 1 (untouched)", i, it.Refs())
		}
	}
	if dead.Refs() != 1 {
		t.Fatalf("dropped item has %d refs, want 1 (carried by the obligations)", dead.Refs())
	}
	if b1.Donated() || b2.Donated() {
		t.Fatal("the merge wrote its donors")
	}
	if !m.HoldsRefs() || len(owed) != 1 || owed[0] != dead {
		t.Fatalf("merged block holds=%v, %d obligations, want true and the dead item", m.HoldsRefs(), len(owed))
	}
	// Donated donors release nothing.
	b1.Donate()
	b2.Donate()
	p.Put(b1)
	p.Put(b2)
	if got := ip.Puts(); got != 0 {
		t.Fatalf("donated blocks released %d items", got)
	}
	// The merged block's slots and the obligations release exactly once.
	for _, it := range lives {
		it.TryTake()
	}
	p.Put(m)
	p.RetireItems(owed)
	if got := ip.Puts(); got != 4 {
		t.Fatalf("released %d of 4 after lineage death", got)
	}
}

// TestShrinkTransferDonatesToCopy: a compacting shrink moves the original's
// references to the copy, and the trimmed tail's to the obligations.
func TestShrinkTransferDonatesToCopy(t *testing.T) {
	p, ip := newReclaimPool(nil)
	b := p.Get(3)
	items := make([]*item.Item[int], 8)
	for i := range items {
		items[i] = ip.Get(uint64(100-i), i)
		b.Append(items[i])
	}
	b.AcquireRefs()
	// Take the six smallest (the tail) so the block becomes underfull.
	for _, it := range items[2:] {
		it.TryTake()
	}
	var owed []*item.Item[int]
	s := b.ShrinkTransferIn(p, &owed)
	if s == b {
		t.Fatal("expected a compacted copy")
	}
	if b.Donated() || !s.HoldsRefs() || len(owed) != 6 {
		t.Fatalf("donated=%v holds=%v obligations=%d after transfer shrink, want false/true/6", b.Donated(), s.HoldsRefs(), len(owed))
	}
	for i, it := range items {
		if it.Refs() != 1 {
			t.Fatalf("item %d refs = %d after shrink, want 1", i, it.Refs())
		}
	}
	b.Donate()
	p.Put(b) // donated original: releases nothing
	if got := ip.Puts(); got != 0 {
		t.Fatalf("donated original released %d items", got)
	}
	items[0].TryTake()
	items[1].TryTake()
	p.Put(s)
	p.RetireItems(owed)
	if got := ip.Puts(); got != 8 {
		t.Fatalf("released %d of 8 after copy death", got)
	}
}

// TestReleaseCoversShrunkTail: references span [0, refHi) even after the
// published block's filled shrank below it.
func TestReleaseCoversShrunkTail(t *testing.T) {
	p, ip := newReclaimPool(nil)
	b := fillTaken(p, ip, 3, 8)
	if got := b.ShrinkInPlace(); got != 0 {
		t.Fatalf("ShrinkInPlace left %d", got)
	}
	p.Put(b)
	if got := ip.Puts(); got != 8 {
		t.Fatalf("released %d of 8 after tail shrink", got)
	}
}

func TestPutReleasesAndReclaims(t *testing.T) {
	p, ip := newReclaimPool(nil)
	b := fillTaken(p, ip, 3, 8)
	p.Put(b)
	if got := ip.Puts(); got != 8 {
		t.Fatalf("reclaimed %d items, want 8", got)
	}
	if st := p.Stats(); st.ItemsReclaimed != 8 || st.ItemsLostLive != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// The block went to the free list with all slots cleared: a recycled
	// incarnation must not double-release.
	nb := p.Get(3)
	if nb != b {
		t.Fatal("block was not recycled")
	}
	p.Put(nb)
	if got := ip.Puts(); got != 8 {
		t.Fatalf("empty recycled block released %d extra items", got-8)
	}
}

// TestRetireItemsGatedOnGuard: dropped-item references parked through
// RetireItems release exactly once, and only at guard quiescence.
func TestRetireItemsGatedOnGuard(t *testing.T) {
	var g Guard
	p, ip := newReclaimPool(&g)
	items := make([]*item.Item[int], 6)
	for i := range items {
		items[i] = ip.Get(uint64(i), i)
		items[i].Ref()
		items[i].TryTake()
	}
	g.Enter()
	p.RetireItems(items)
	if got := ip.Puts(); got != 0 {
		t.Fatalf("%d items released while the guard was active", got)
	}
	g.Exit()
	if !p.DrainLimbo() {
		t.Fatal("item limbo did not drain at quiescence")
	}
	if got := ip.Puts(); got != int64(len(items)) {
		t.Fatalf("released %d items, want %d", got, len(items))
	}
	// Quiescent path: releases immediately.
	it := ip.Get(99, 99)
	it.Ref()
	it.TryTake()
	p.RetireItems([]*item.Item[int]{it})
	if got := ip.Puts(); got != int64(len(items))+1 {
		t.Fatalf("quiescent RetireItems did not release (puts=%d)", got)
	}
}

// TestDroppedBlockStillReleasesItems is the §4.4-proper guarantee on the
// drop paths: blocks the pool refuses to keep (free-list cap, level bound)
// must release their item references before falling to the GC.
func TestDroppedBlockStillReleasesItems(t *testing.T) {
	p, ip := newReclaimPool(nil)
	// Overfill level 3's free list (cap 4) so the fifth Put drops.
	blocks := make([]*Block[int], 5)
	for i := range blocks {
		blocks[i] = fillTaken(p, ip, 3, 4)
	}
	for _, b := range blocks {
		p.Put(b)
	}
	if got := ip.Puts(); got != 20 {
		t.Fatalf("reclaimed %d items, want all 20 despite the cap drop", got)
	}
	if st := p.Stats(); st.Dropped == 0 {
		t.Fatal("expected at least one block drop at the free-list cap")
	}

	// Same for the level bound: a block above maxPoolLevel is never pooled
	// but still releases.
	big := fillTaken(p, ip, maxPoolLevel+1, 16)
	before := ip.Puts()
	p.Put(big)
	if got := ip.Puts() - before; got != 16 {
		t.Fatalf("over-level block released %d of 16", got)
	}
}

// TestRetireLimboReleasesAfterQuiescence: references parked in limbo by an
// active guard release exactly once when the guard quiesces, and a full
// limbo leaks nothing.
func TestRetireLimboReleasesAfterQuiescence(t *testing.T) {
	var g Guard
	p, ip := newReclaimPool(&g)
	g.Enter()
	const blocks = limboCap
	for i := 0; i < blocks; i++ {
		p.Retire(fillTaken(p, ip, 0, 1))
	}
	if got := ip.Puts(); got != 0 {
		t.Fatalf("%d items released while the guard was active", got)
	}
	if st := p.Stats(); st.LimboLeaked != 0 {
		t.Fatalf("leaked %d blocks within the limbo cap", st.LimboLeaked)
	}
	g.Exit()
	if !p.DrainLimbo() {
		t.Fatal("limbo did not drain at quiescence")
	}
	if got := ip.Puts(); got != blocks {
		t.Fatalf("released %d items, want exactly %d", got, blocks)
	}
}

// TestRetireLimboLeakIsCounted: past the limbo cap the pool gives up and
// counts the leak instead of blocking.
func TestRetireLimboLeakIsCounted(t *testing.T) {
	var g Guard
	p, ip := newReclaimPool(&g)
	g.Enter()
	defer g.Exit()
	for i := 0; i < limboCap+10; i++ {
		p.Retire(fillTaken(p, ip, 0, 1))
	}
	if st := p.Stats(); st.LimboLeaked != 10 {
		t.Fatalf("LimboLeaked = %d, want 10", st.LimboLeaked)
	}
}

// TestDetachLimboHandsOverObligations: the close-path handoff moves parked
// blocks and item references to a surviving pool, which releases them at
// quiescence into its own item pool — nothing leaks with the guard busy at
// close time.
func TestDetachLimboHandsOverObligations(t *testing.T) {
	var g Guard
	closing, closingItems := newReclaimPool(&g)
	g.Enter()
	const blocks = 8
	for i := 0; i < blocks; i++ {
		closing.Retire(fillTaken(closing, closingItems, 0, 1))
	}
	dropped := closingItems.Get(77, 77)
	dropped.Ref()
	dropped.TryTake()
	closing.RetireItems([]*item.Item[int]{dropped})

	orphans, orphanItems := closing.DetachLimbo()
	if len(orphans) != blocks || len(orphanItems) != 1 {
		t.Fatalf("detached %d blocks / %d items, want %d / 1", len(orphans), len(orphanItems), blocks)
	}
	if b, it := closing.DetachLimbo(); b != nil || it != nil {
		t.Fatalf("second detach returned %d blocks / %d items", len(b), len(it))
	}

	survivor, survivorItems := newReclaimPool(&g)
	for _, b := range orphans {
		survivor.Retire(b)
	}
	survivor.RetireItems(orphanItems)
	if got := survivorItems.Puts(); got != 0 {
		t.Fatalf("%d items released under an active guard", got)
	}
	g.Exit()
	if !survivor.DrainLimbo() {
		t.Fatal("adopted limbo did not drain at quiescence")
	}
	if got := survivorItems.Puts(); got != blocks+1 {
		t.Fatalf("adopting pool released %d items, want %d", got, blocks+1)
	}
	if got := closingItems.Puts(); got != 0 {
		t.Fatalf("closing pool released %d items after the handoff", got)
	}
}
