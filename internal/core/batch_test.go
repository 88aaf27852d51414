package core

import (
	"math"
	"sort"
	"testing"

	"klsm/internal/xrand"
)

// drainAll empties the queue through h and returns the popped keys in order.
func drainAllKeys(t *testing.T, h *Handle[int]) []uint64 {
	t.Helper()
	var got []uint64
	for {
		k, _, ok := h.TryDeleteMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	return got
}

// TestInsertBatchConservation checks, for every operating mode, that a mix
// of batch and single inserts yields exactly the inserted multiset back —
// no key lost, none duplicated — including batches large enough to overflow
// the DistLSM bound in one step.
func TestInsertBatchConservation(t *testing.T) {
	modes := []struct {
		name string
		cfg  Config[int]
	}{
		{"combined", Config[int]{K: 8, Mode: Combined, LocalOrdering: true}},
		{"distonly", Config[int]{Mode: DistOnly}},
		{"k0", Config[int]{K: 0, Mode: Combined, LocalOrdering: true}},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			q := NewQueue(m.cfg)
			h := q.NewHandle()
			rng := xrand.NewSeeded(11)
			var want []uint64
			for _, n := range []int{1, 2, 3, 8, 64, 512} {
				keys := make([]uint64, n)
				vals := make([]int, n)
				for i := range keys {
					keys[i] = rng.Uint64n(1 << 32)
					want = append(want, keys[i])
				}
				h.InsertBatch(keys, vals)
			}
			for i := 0; i < 50; i++ {
				k := rng.Uint64n(1 << 32)
				want = append(want, k)
				h.Insert(k, 0)
			}
			if q.Size() != len(want) {
				t.Fatalf("Size = %d, want %d", q.Size(), len(want))
			}
			got := drainAllKeys(t, h)
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("drained %d keys, inserted %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("multiset mismatch at %d: got %d want %d", i, got[i], want[i])
				}
			}
		})
	}
}

// TestInsertBatchNilValuesAndMismatch pins the values contract: nil values
// insert zero payloads, a length mismatch panics.
func TestInsertBatchNilValuesAndMismatch(t *testing.T) {
	q := NewQueue(Config[int]{K: 4, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	h.InsertBatch([]uint64{3, 1, 2}, nil)
	if q.Size() != 3 {
		t.Fatalf("Size = %d after nil-values batch", q.Size())
	}
	k, v, ok := h.TryDeleteMin()
	if !ok || v != 0 {
		t.Fatalf("TryDeleteMin = (%d, %d, %v), want zero payload", k, v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	h.InsertBatch([]uint64{1, 2}, []int{1})
}

// TestDrainMinSingleHandleExact drains a k=0 single-handle queue with
// DrainMin and expects fully sorted output in one pass (with k=0 and one
// handle the relaxation bound is zero).
func TestDrainMinSingleHandleExact(t *testing.T) {
	q := NewQueue(Config[int]{K: 0, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	rng := xrand.NewSeeded(23)
	const n = 2000
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64n(1 << 40)
	}
	h.InsertBatch(keys, nil)
	var got []uint64
	cnt := h.DrainMin(n+10, func(k uint64, _ int) { got = append(got, k) })
	if cnt != n || len(got) != n {
		t.Fatalf("DrainMin drained %d (emitted %d), want %d", cnt, len(got), n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("k=0 single-handle drain not sorted")
	}
	if extra := h.DrainMin(4, func(uint64, int) {}); extra != 0 {
		t.Fatalf("DrainMin on empty queue returned %d", extra)
	}
	if h.DrainMin(-3, func(uint64, int) {}) != 0 {
		t.Fatal("DrainMin with negative max must return 0")
	}
}

// TestInsertBatchReclaimLedger proves the exactly-once item ledger survives
// the batch path: after batch inserts, a full drain, handle close, and
// Quiesce, every item has been released to an item pool exactly once.
func TestInsertBatchReclaimLedger(t *testing.T) {
	q := NewQueue(Config[int]{K: 16, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	rng := xrand.NewSeeded(31)
	total := 0
	for round := 0; round < 8; round++ {
		keys := make([]uint64, 300)
		for i := range keys {
			keys[i] = rng.Uint64n(1 << 30)
		}
		h.InsertBatch(keys, nil)
		total += len(keys)
		// Interleave drains so candidates churn through the window.
		total -= h.DrainMin(120, func(uint64, int) {})
	}
	got := drainAllKeys(t, h)
	if len(got) != total {
		t.Fatalf("drained %d, want %d live", len(got), total)
	}
	h.Close()
	q.Quiesce()
	rs := q.ReclaimStats()
	if rs.ItemsLostLive != 0 {
		t.Fatalf("ItemsLostLive = %d", rs.ItemsLostLive)
	}
	if rs.LimboLeaked != 0 {
		t.Fatalf("LimboLeaked = %d", rs.LimboLeaked)
	}
	if rs.ItemsReclaimed != rs.ItemPuts {
		t.Fatalf("ItemsReclaimed %d != ItemPuts %d", rs.ItemsReclaimed, rs.ItemPuts)
	}
}

// TestRelaxationClamp pins the SetRelaxation/NewQueue validation contract:
// negative k panics in both, absurd k clamps to MaxRelaxation, and ρ stays
// non-negative afterwards.
func TestRelaxationClamp(t *testing.T) {
	q := NewQueue(Config[int]{K: math.MaxInt, Mode: Combined, LocalOrdering: true})
	if q.K() != MaxRelaxation {
		t.Fatalf("NewQueue K = %d, want clamp to %d", q.K(), MaxRelaxation)
	}
	q.NewHandle()
	q.NewHandle()
	q.SetRelaxation(math.MaxInt)
	if q.K() != MaxRelaxation {
		t.Fatalf("SetRelaxation K = %d, want clamp to %d", q.K(), MaxRelaxation)
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
	// Validation applies to DistOnly queues too, where the value is
	// otherwise a documented no-op.
	dq := NewQueue(Config[int]{Mode: DistOnly})
	defer func() {
		if recover() == nil {
			t.Fatal("DistOnly SetRelaxation(-1) did not panic")
		}
	}()
	dq.SetRelaxation(-1)
}
