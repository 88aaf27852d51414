package klsm

import (
	"reflect"
	"sync"
	"testing"

	"klsm/internal/xrand"
)

func TestPublicAPIQuickstart(t *testing.T) {
	q := New[string]()
	h := q.NewHandle()
	h.Insert(3, "three")
	h.Insert(1, "one")
	h.Insert(2, "two")
	if q.Size() != 3 {
		t.Fatalf("Size = %d", q.Size())
	}
	k, v, ok := h.TryDeleteMin()
	if !ok || k != 1 || v != "one" {
		t.Fatalf("TryDeleteMin = (%d, %q, %v)", k, v, ok)
	}
}

// TestOptionsCompose: options apply in order, so a later WithRelaxation
// overrides an earlier one, and New ignores the durability options.
func TestOptionsCompose(t *testing.T) {
	q := New[int](WithRelaxation(4), WithSyncInterval(0), WithRelaxation(16))
	if q.K() != 16 {
		t.Fatalf("K = %d", q.K())
	}
	q.NewHandle()
	q.NewHandle()
	if q.Rho() != 32 {
		t.Fatalf("Rho = %d", q.Rho())
	}
}

func TestNegativeKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative k did not panic")
		}
	}()
	New[int](WithRelaxation(-1))
}

func TestPeekMin(t *testing.T) {
	q := New[int](WithRelaxation(0))
	h := q.NewHandle()
	h.Insert(7, 70)
	k, v, ok := h.PeekMin()
	if !ok || k != 7 || v != 70 {
		t.Fatalf("PeekMin = (%d,%d,%v)", k, v, ok)
	}
	if q.Size() != 1 {
		t.Fatal("PeekMin removed the item")
	}
}

func TestNewWithDrop(t *testing.T) {
	stale := func(key uint64, _ int) bool { return key >= 1000 }
	q := NewWithDrop(stale, WithRelaxation(2))
	h := q.NewHandle()
	for i := uint64(0); i < 20; i++ {
		h.Insert(i, 0)
		h.Insert(1000+i, 0)
	}
	for {
		k, _, ok := h.TryDeleteMin()
		if !ok {
			break
		}
		if k >= 1000 {
			t.Fatalf("stale key %d returned", k)
		}
	}
}

func TestMeldPublic(t *testing.T) {
	a, b := New[int](), New[int]()
	ha, hb := a.NewHandle(), b.NewHandle()
	ha.Insert(1, 0)
	hb.Insert(2, 0)
	ha.Meld(b)
	ha.Meld(nil) // no-op
	count := 0
	for {
		if _, _, ok := ha.TryDeleteMin(); !ok {
			break
		}
		count++
	}
	if count != 2 {
		t.Fatalf("drained %d after meld, want 2", count)
	}
}

// TestEndToEndConcurrent is the public-API version of the conservation test.
func TestEndToEndConcurrent(t *testing.T) {
	const workers = 8
	n := 3000
	if testing.Short() {
		n = 500
	}
	q := New[int](WithRelaxation(256))
	var wg sync.WaitGroup
	var deleted [workers][]uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := q.NewHandle()
			src := xrand.NewSeeded(uint64(id))
			for i := 0; i < n; i++ {
				h.Insert(uint64(id*n+i), id)
				if src.Intn(3) == 0 {
					if k, _, ok := h.TryDeleteMin(); ok {
						deleted[id] = append(deleted[id], k)
					}
				}
			}
			for {
				k, _, ok := h.TryDeleteMin()
				if !ok {
					return
				}
				deleted[id] = append(deleted[id], k)
			}
		}(w)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	total := 0
	for _, keys := range deleted {
		total += len(keys)
		for _, k := range keys {
			if seen[k] {
				t.Fatalf("key %d deleted twice", k)
			}
			seen[k] = true
		}
	}
	if total != workers*n {
		t.Fatalf("deleted %d of %d inserted", total, workers*n)
	}
}

// TestStatsKeepClosedHandles: closing a handle must not take its counters
// out of Stats — every counter but Handles is a lifetime total, as Size
// already is across handle churn.
func TestStatsKeepClosedHandles(t *testing.T) {
	q := New[int](WithRelaxation(4)) // small k: merges and overflows
	producer, consumer := q.NewHandle(), q.NewHandle()
	for i := 0; i < 2000; i++ {
		producer.Insert(uint64(i), i)
	}
	for i := 0; i < 1500; i++ {
		if _, _, ok := consumer.TryDeleteMin(); !ok {
			t.Fatalf("delete %d failed with items left", i)
		}
	}
	before := q.Stats()
	if before.Merges == 0 || before.Overflows == 0 || before.WindowBuilds == 0 || before.BufferPops == 0 {
		t.Fatalf("workload too small to exercise the counters: %+v", before)
	}
	producer.Close()
	consumer.Close()
	after := q.Stats()
	if after.Handles != 0 {
		t.Fatalf("Handles = %d after closing every handle", after.Handles)
	}
	b, a := reflect.ValueOf(before), reflect.ValueOf(after)
	for i := 0; i < b.NumField(); i++ {
		name := b.Type().Field(i).Name
		if name == "Handles" {
			continue
		}
		if a.Field(i).Int() < b.Field(i).Int() {
			t.Errorf("%s went down on close: %d -> %d", name, b.Field(i).Int(), a.Field(i).Int())
		}
	}
	if q.Size() != 500 {
		t.Fatalf("Size = %d, want 500", q.Size())
	}
}
