package item

import "testing"

func TestRefUnrefCounts(t *testing.T) {
	it := New(7, "x")
	if it.Refs() != 0 {
		t.Fatalf("fresh item has %d refs", it.Refs())
	}
	it.Ref()
	it.Ref()
	if it.Refs() != 2 {
		t.Fatalf("refs = %d, want 2", it.Refs())
	}
	if it.Unref() {
		t.Fatal("first Unref of two reported zero")
	}
	if !it.Unref() {
		t.Fatal("final Unref did not report zero")
	}
}

func TestUnrefUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unref below zero did not panic")
		}
	}()
	New(1, 0).Unref()
}

func TestRefsSurviveTakeAndReset(t *testing.T) {
	// The refcount is orthogonal to the versioned flag: takes and resets
	// must not disturb it.
	it := New(3, 9)
	it.Ref()
	if !it.TryTake() {
		t.Fatal("take failed")
	}
	if it.Refs() != 1 {
		t.Fatalf("refs = %d after take", it.Refs())
	}
	if !it.Unref() {
		t.Fatal("unref did not hit zero")
	}
	it.Reset(4, 10)
	if it.Refs() != 0 {
		t.Fatalf("refs = %d after reset, want 0", it.Refs())
	}
}

func TestTrimFreeDropsToGC(t *testing.T) {
	p := NewPool[int]()
	items := make([]*Item[int], 8)
	for i := range items {
		items[i] = p.Get(uint64(i), i)
	}
	for _, it := range items {
		it.TryTake()
		p.Put(it)
	}
	p.TrimFree(3)
	if p.FreeLen() != 3 {
		t.Fatalf("free = %d after trim, want 3", p.FreeLen())
	}
	if p.Puts() != 8 {
		t.Fatalf("trim disturbed the Puts ledger: %d", p.Puts())
	}
	p.TrimFree(0)
	if p.FreeLen() != 0 {
		t.Fatalf("free = %d after trim to 0", p.FreeLen())
	}
}

func TestPoolPutsCounter(t *testing.T) {
	p := NewPool[int]()
	it := p.Get(5, 50)
	it.TryTake()
	p.Put(it)
	if p.Puts() != 1 || p.FreeLen() != 1 {
		t.Fatalf("puts=%d freeLen=%d, want 1/1", p.Puts(), p.FreeLen())
	}
}
