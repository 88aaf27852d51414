package block

import (
	"testing"

	"klsm/internal/item"
)

// newReclaimPool returns a pool registered in d plus its item pool.
func newReclaimPool(d *Domain) (*Pool[int], *item.Pool[int]) {
	ip := item.NewPool[int]()
	return NewPool(d.Register(), ip), ip
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
	p, ip := newReclaimPool(new(Domain))
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
	p, ip := newReclaimPool(new(Domain))
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
	p.Retire(nil, owed)
	if got := ip.Puts(); got != 4 {
		t.Fatalf("released %d of 4 after lineage death", got)
	}
}

// TestShrinkTransferDonatesToCopy: a compacting shrink moves the original's
// references to the copy, and the trimmed tail's to the obligations.
func TestShrinkTransferDonatesToCopy(t *testing.T) {
	p, ip := newReclaimPool(new(Domain))
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
	p.Retire(nil, owed)
	if got := ip.Puts(); got != 8 {
		t.Fatalf("released %d of 8 after copy death", got)
	}
}

// TestReleaseCoversShrunkTail: references span [0, refHi) even after the
// published block's filled shrank below it.
func TestReleaseCoversShrunkTail(t *testing.T) {
	p, ip := newReclaimPool(new(Domain))
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
	p, ip := newReclaimPool(new(Domain))
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

// takenRefs returns n taken items holding one reference each, as
// obligations do.
func takenRefs(ip *item.Pool[int], n int) []*item.Item[int] {
	items := make([]*item.Item[int], n)
	for i := range items {
		items[i] = ip.Get(uint64(i), i)
		items[i].Ref()
		items[i].TryTake()
	}
	return items
}

// TestRetireItemsGatedOnGuard: retired obligations release exactly once,
// and only once the reader pinned at their retirement has unpinned.
func TestRetireItemsGatedOnGuard(t *testing.T) {
	var d Domain
	p, ip := newReclaimPool(&d)
	spy := d.Register()
	items := takenRefs(ip, 6)
	spy.Pin()
	p.Retire(nil, items)
	if got := ip.Puts(); got != 0 {
		t.Fatalf("%d items released while a reader was pinned", got)
	}
	spy.Unpin()
	if !p.DrainLimbo() {
		t.Fatal("limbo did not drain after the unpin")
	}
	if got := ip.Puts(); got != int64(len(items)) {
		t.Fatalf("released %d items, want %d", got, len(items))
	}
	// Unpinned path: releases immediately.
	p.Retire(nil, takenRefs(ip, 1))
	if got := ip.Puts(); got != int64(len(items))+1 {
		t.Fatalf("unpinned Retire did not release (puts=%d)", got)
	}
}

// TestDroppedBlockStillReleasesItems is the §4.4-proper guarantee on the
// drop paths: blocks the pool refuses to keep (free-list cap, level bound)
// must release their item references before falling to the GC.
func TestDroppedBlockStillReleasesItems(t *testing.T) {
	p, ip := newReclaimPool(new(Domain))
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

// TestRetireLimboReleasesAfterQuiescence: references parked in the limbo
// behind a pinned reader release exactly once when it unpins.
func TestRetireLimboReleasesAfterQuiescence(t *testing.T) {
	var d Domain
	p, ip := newReclaimPool(&d)
	spy := d.Register()
	spy.Pin()
	const blocks = 512
	for i := 0; i < blocks; i++ {
		retire(p, fillTaken(p, ip, 0, 1))
	}
	if got := ip.Puts(); got != 0 {
		t.Fatalf("%d items released while a reader was pinned", got)
	}
	spy.Unpin()
	if !p.DrainLimbo() {
		t.Fatal("limbo did not drain after the unpin")
	}
	if got := ip.Puts(); got != blocks {
		t.Fatalf("released %d items, want exactly %d", got, blocks)
	}
}

// TestPinsReleaseInRetireOrder: two readers pinned at different epochs.
// What was retired before the later pin recycles once the earlier reader
// unpins, while the later retirements wait for the later reader — a
// descheduled reader pins only what was retired after it entered.
func TestPinsReleaseInRetireOrder(t *testing.T) {
	var d Domain
	p, ip := newReclaimPool(&d)
	early, late := d.Register(), d.Register()
	early.Pin()
	first := fillTaken(p, ip, 1, 2)
	retire(p, first)
	late.Pin()
	second := fillTaken(p, ip, 2, 3)
	retire(p, second)
	p.Retire(nil, takenRefs(ip, 4))
	if got := ip.Puts(); got != 0 {
		t.Fatalf("%d items released with both readers pinned", got)
	}
	early.Unpin()
	if p.DrainLimbo() {
		t.Fatal("limbo drained while the later reader was pinned")
	}
	if got := ip.Puts(); got != 2 {
		t.Fatalf("released %d items after the early unpin, want the first block's 2", got)
	}
	if got := p.Get(1); got != first {
		t.Fatal("the block retired before the later pin was not recycled")
	}
	late.Unpin()
	if !p.DrainLimbo() {
		t.Fatal("limbo did not drain after both unpinned")
	}
	if got := ip.Puts(); got != 2+3+4 {
		t.Fatalf("released %d items, want 9", got)
	}
}

// TestPinnedRetireDropsNothing: while a reader stays pinned, retirements
// grow the limbo instead of dropping anything — here ten times what a
// per-handle cap of 512 blocks and 2^15 obligations would keep — and every
// entry releases exactly once after the unpin.
func TestPinnedRetireDropsNothing(t *testing.T) {
	var d Domain
	p, ip := newReclaimPool(&d)
	spy := d.Register()
	spy.Pin()
	const blocks, items = 10 * 512, 10 << 15
	for i := 0; i < blocks; i++ {
		retire(p, fillTaken(p, ip, 0, 1))
	}
	for i := 0; i < items; i += 1 << 10 {
		p.Retire(nil, takenRefs(ip, 1<<10))
	}
	if nb, ni := p.limbo.Len(); nb != blocks || ni != items || ip.Puts() != 0 {
		t.Fatalf("limbo holds %d blocks and %d obligations, released %d; want %d, %d and 0",
			nb, ni, ip.Puts(), blocks, items)
	}
	spy.Unpin()
	if !p.DrainLimbo() {
		t.Fatal("limbo did not drain after the unpin")
	}
	if got := ip.Puts(); got != blocks+items {
		t.Fatalf("released %d items, want exactly %d", got, blocks+items)
	}
	if st := p.Stats(); st.ItemsLostLive != 0 {
		t.Fatalf("%d live items released", st.ItemsLostLive)
	}
}

// TestDetachLimboHandsOverObligations: the close-path handoff (Adopt) moves
// parked blocks and item references, tags and all, to a surviving pool,
// which releases them into its own item pool once the reader pinned at
// their retirement unpins — nothing leaks with a reader pinned at close.
func TestDetachLimboHandsOverObligations(t *testing.T) {
	var d Domain
	closing, closingItems := newReclaimPool(&d)
	spy := d.Register()
	spy.Pin()
	const blocks = 8
	for i := 0; i < blocks; i++ {
		retire(closing, fillTaken(closing, closingItems, 0, 1))
	}
	closing.Retire(nil, takenRefs(closingItems, 1))

	survivor, survivorItems := newReclaimPool(&d)
	survivor.Adopt(closing)
	if nb, ni := survivor.limbo.Len(); nb != blocks || ni != 1 || !closing.limbo.Empty() {
		t.Fatalf("adopted %d blocks / %d items, want %d / 1, closing limbo emptied", nb, ni, blocks)
	}
	if got := survivorItems.Puts(); got != 0 {
		t.Fatalf("%d items released under a pinned reader", got)
	}
	spy.Unpin()
	if !survivor.DrainLimbo() {
		t.Fatal("adopted limbo did not drain after the unpin")
	}
	if got := survivorItems.Puts(); got != blocks+1 {
		t.Fatalf("adopting pool released %d items, want %d", got, blocks+1)
	}
	if got := closingItems.Puts(); got != 0 {
		t.Fatalf("closing pool released %d items after the handoff", got)
	}
}
