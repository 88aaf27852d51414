package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"klsm/internal/xrand"
)

// TestBoundedDrainConcurrentFilter races inserters that cancel half their
// items through the Drop filter against bounded drainers — the timer
// pattern. Every pop must be at or below its bound and carry its own
// payload, no item may be popped twice, and every item never canceled must
// be popped. Under -race it guards bounded pops against reading and
// claiming a recycled item: if FindMin handed out a candidate whose last
// reference its own consolidation had just released, another handle's
// insert could reset that item mid-pop, and the pop would take the new
// incarnation, whatever its key.
func TestBoundedDrainConcurrentFilter(t *testing.T) {
	const (
		inserters = 4
		drainers  = 2
		perIns    = 20000
		span      = 1000 // keys fall in [0, span)
		slotMask  = 1<<32 - 1
	)
	n := inserters * perIns
	canceled := make([]atomic.Bool, n)
	popped := make([]atomic.Int32, n)
	// A value is key<<32 | slot, so a pop can check its key against the
	// payload it returned.
	drop := func(_ uint64, v uint64) bool { return canceled[v&slotMask].Load() }
	q := NewQueue(Config[uint64]{K: 256, Mode: Combined, LocalOrdering: true, Drop: drop})

	var bad atomic.Int64
	emitter := func(bound uint64) func(k, v uint64) {
		return func(k, v uint64) {
			if k > bound || k != v>>32 {
				bad.Add(1)
			}
			popped[v&slotMask].Add(1)
		}
	}

	var wg, dwg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			rng := xrand.NewSeeded(uint64(w)*7919 + 3)
			for i := 0; i < perIns; i++ {
				slot := uint64(w*perIns + i)
				key := rng.Uint64n(span)
				h.Insert(key, key<<32|slot)
				if rng.Intn(2) == 0 {
					canceled[slot].Store(true)
				}
			}
		}(w)
	}
	for d := 0; d < drainers; d++ {
		dwg.Add(1)
		go func(d int) {
			defer dwg.Done()
			h := q.NewHandle()
			rng := xrand.NewSeeded(uint64(d)*104729 + 11)
			for !done.Load() {
				// Bounds in the upper half keep the drain pulling due items
				// out of the inserters' local structures (spyDue) while
				// leaving keys above the bound to check against.
				bound := span/2 + rng.Uint64n(span/2)
				h.DrainMinBounded(bound, 256, emitter(bound))
			}
		}(d)
	}
	wg.Wait()
	done.Store(true)
	dwg.Wait()

	h := q.NewHandle()
	for h.DrainMinBounded(span, 256, emitter(span)) > 0 {
	}
	if b := bad.Load(); b != 0 {
		t.Fatalf("%d pops above their bound or with another item's payload", b)
	}
	for slot := range popped {
		p := popped[slot].Load()
		switch {
		case p > 1:
			t.Fatalf("slot %d popped %d times", slot, p)
		case p == 0 && !canceled[slot].Load():
			t.Fatalf("slot %d never canceled and never popped", slot)
		}
	}
}
