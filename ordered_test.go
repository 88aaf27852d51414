package klsm

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"klsm/internal/xrand"
)

// TestOrderedFloat64Queue drains a strict (k=0) float64 queue and expects
// exact float order, specials included.
func TestOrderedFloat64Queue(t *testing.T) {
	q := NewOrdered[float64, string](Float64Key(), WithRelaxation(0))
	h := q.NewHandle()
	keys := []float64{3.5, math.Inf(-1), -0.25, 1e300, math.Inf(1), 0, -1e-300}
	for _, k := range keys {
		h.Insert(k, "v")
	}
	var got []float64
	for {
		k, _, ok := h.TryDeleteMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != len(keys) {
		t.Fatalf("drained %d of %d", len(got), len(keys))
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("k=0 float drain not sorted: %v", got)
	}
}

// TestOrderedTimeQueue checks deadline ordering through TimeKey, with
// PeekMin agreeing with the subsequent TryDeleteMin on a quiescent queue.
func TestOrderedTimeQueue(t *testing.T) {
	q := NewOrdered[time.Time, int](TimeKey(), WithRelaxation(0))
	h := q.NewHandle()
	base := time.Date(2026, 7, 26, 12, 0, 0, 0, time.UTC)
	for _, off := range []int{5, 1, 9, 3} {
		h.Insert(base.Add(time.Duration(off)*time.Minute), off)
	}
	pk, pv, ok := h.PeekMin()
	if !ok || pv != 1 || !pk.Equal(base.Add(time.Minute)) {
		t.Fatalf("PeekMin = (%v, %d, %v)", pk, pv, ok)
	}
	k, v, ok := h.TryDeleteMin()
	if !ok || v != 1 || !k.Equal(base.Add(time.Minute)) {
		t.Fatalf("TryDeleteMin = (%v, %d, %v)", k, v, ok)
	}
	if q.Size() != 3 {
		t.Fatalf("Size = %d", q.Size())
	}
}

// TestOrderedBatchAndHandleFree mixes every access style on one int64
// queue — ordered handles, ordered handle-free ops, batch insert and drain —
// and verifies conservation of the multiset.
func TestOrderedBatchAndHandleFree(t *testing.T) {
	q := NewOrdered[int64, int](Int64Key(), WithRelaxation(8))
	h := q.NewHandle()
	rng := xrand.NewSeeded(77)
	want := map[int64]int{}
	batch := make([]int64, 200)
	for i := range batch {
		batch[i] = int64(rng.Uint64())
		want[batch[i]]++
	}
	h.InsertBatch(batch, nil)
	q.InsertBatch(batch[:50], nil) // handle-free batch
	for _, k := range batch[:50] {
		want[k]++
	}
	q.Insert(-42, 1) // handle-free single
	want[-42]++
	total := 251
	got := 0
	// Handle-free drains and pops, interleaved with handle drains.
	for got < total {
		kvs := q.DrainMin(nil, 7)
		for _, kv := range kvs {
			want[kv.Key]--
			if want[kv.Key] < 0 {
				t.Fatalf("key %d over-returned", kv.Key)
			}
			got++
		}
		kvs2 := h.DrainMin(nil, 5)
		for _, kv := range kvs2 {
			want[kv.Key]--
			if want[kv.Key] < 0 {
				t.Fatalf("key %d over-returned", kv.Key)
			}
			got++
		}
		if k, _, ok := q.TryDeleteMin(); ok {
			want[k]--
			if want[k] < 0 {
				t.Fatalf("key %d over-returned", k)
			}
			got++
		}
		if len(kvs) == 0 && len(kvs2) == 0 {
			break
		}
	}
	if got != total {
		t.Fatalf("drained %d of %d", got, total)
	}
	for k, n := range want {
		if n != 0 {
			t.Fatalf("key %d left %d times", k, n)
		}
	}
}

// TestOrderedWithDrop routes the lazy-deletion callback through the codec:
// the callback must observe decoded keys.
func TestOrderedWithDrop(t *testing.T) {
	stale := map[int64]bool{-7: true, 3: true}
	q := NewOrderedWithDrop[int64, int](Int64Key(), func(k int64, _ int) bool {
		return stale[k]
	}, WithRelaxation(4))
	h := q.NewHandle()
	for _, k := range []int64{-7, -1, 3, 8} {
		h.Insert(k, 0)
	}
	var got []int64
	for {
		k, _, ok := h.TryDeleteMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != 2 || got[0] != -1 || got[1] != 8 {
		t.Fatalf("drop through codec failed: got %v", got)
	}
}

// TestHandleFreeRegistryBoundsRho is the ρ-boundedness regression for the
// handle registry: sequential handle-free operations from arbitrarily many
// goroutines must reuse one registry handle — T (and so ρ = T·k) must not
// grow with goroutine churn — and concurrent use must stay bounded by the
// peak concurrency, not the goroutine count.
func TestHandleFreeRegistryBoundsRho(t *testing.T) {
	const k = 16
	q := New[int](WithRelaxation(k))
	// 500 sequential "goroutine lifetimes" of handle-free ops.
	for g := 0; g < 500; g++ {
		q.Insert(uint64(g), g)
		if _, _, ok := q.TryDeleteMin(); !ok {
			t.Fatalf("lifetime %d: queue unexpectedly empty", g)
		}
	}
	if rho := q.Rho(); rho != k {
		t.Fatalf("sequential handle-free ops grew ρ to %d (T=%d), want one registry handle", rho, rho/k)
	}
	// Concurrent churn: many short-lived goroutines, bounded concurrency.
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q.Insert(uint64(w*1000+i), i)
				q.TryDeleteMin()
			}
		}(w)
	}
	wg.Wait()
	if rho := q.Rho(); rho > workers*2*k {
		t.Fatalf("concurrent handle-free ops grew ρ to %d, want ≤ peak-concurrency bound %d", rho, workers*2*k)
	}
}

// TestHandleFreePanicReturnsHandle pins the borrow/return contract under
// panics: a handle-free operation that panics (here: the documented batch
// length-mismatch panic) must still return its borrowed handle, so
// recovered panics cannot grow ρ.
func TestHandleFreePanicReturnsHandle(t *testing.T) {
	q := New[int](WithRelaxation(8))
	q.Insert(1, 1) // materialize the registry handle
	base := q.Rho()
	for i := 0; i < 10; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("length mismatch did not panic")
				}
			}()
			q.InsertBatch([]uint64{1, 2}, []int{1})
		}()
	}
	q.Insert(2, 2)
	if q.Rho() != base {
		t.Fatalf("ρ grew from %d to %d across recovered panics (handle leaked)", base, q.Rho())
	}
}

// TestNilCodecPanics pins the NewOrdered validation.
func TestNilCodecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil codec did not panic")
		}
	}()
	NewOrdered[uint64, int](nil)
}

// TestSetRelaxationValidation is the public-layer regression for the
// SetRelaxation contract: negative k panics, absurd k is clamped to
// MaxRelaxation, and the queue remains usable afterwards.
func TestSetRelaxationValidation(t *testing.T) {
	q := New[int]()
	q.SetRelaxation(math.MaxInt)
	if q.K() != MaxRelaxation {
		t.Fatalf("K = %d after absurd SetRelaxation, want clamp to %d", q.K(), MaxRelaxation)
	}
	h := q.NewHandle()
	h.Insert(7, 0)
	if k, _, ok := h.TryDeleteMin(); !ok || k != 7 {
		t.Fatalf("queue unusable after clamp: (%d, %v)", k, ok)
	}
	if q.Rho() < 0 {
		t.Fatalf("Rho overflowed: %d", q.Rho())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetRelaxation(-1) did not panic")
			}
		}()
		q.SetRelaxation(-1)
	}()
	// New clamps identically.
	if qc := New[int](WithRelaxation(math.MaxInt)); qc.K() != MaxRelaxation {
		t.Fatalf("New K = %d, want %d", qc.K(), MaxRelaxation)
	}
}

// TestDeleteByRef: Delete removes exactly the item its Ref names, once, and
// counts in Size; a popped item's Ref and the zero Ref delete nothing.
func TestDeleteByRef(t *testing.T) {
	q := NewOrdered[int64, string](Int64Key())
	r := q.InsertRef(-5, "gone")
	q.Insert(3, "kept")
	popped := q.InsertRef(-9, "popped")
	if k, v, ok := q.TryDeleteMin(); !ok || k != -9 || v != "popped" {
		t.Fatalf("TryDeleteMin = %d, %q, %v; want -9, \"popped\", true", k, v, ok)
	}
	if !q.Delete(r) {
		t.Fatal("Delete of a live item's Ref = false")
	}
	if q.Delete(r) || q.Delete(popped) || q.Delete(Ref[string]{}) {
		t.Fatal("Delete of a removed item's Ref, or of the zero Ref, = true")
	}
	if n := q.Size(); n != 1 {
		t.Fatalf("Size = %d, want 1", n)
	}
	if k, v, ok := q.TryDeleteMin(); !ok || k != 3 || v != "kept" {
		t.Fatalf("TryDeleteMin = %d, %q, %v; want 3, \"kept\", true", k, v, ok)
	}
	if _, _, ok := q.TryDeleteMin(); ok {
		t.Fatal("the deleted item surfaced from TryDeleteMin")
	}
}
