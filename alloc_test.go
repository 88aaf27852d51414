package klsm

import (
	"testing"

	"klsm/internal/xrand"
)

// TestPooledAllocationBudget is the §4.4 acceptance bar: with pooling on
// (the default), steady-state insert + try-delete-min must average at most
// one heap allocation per operation on a warmed-up queue. The remaining
// trickle is the item slab (1/256 inserts) plus rare free-list growth; the
// block-per-insert and slice-per-merge garbage of the unpooled path must be
// gone.
func TestPooledAllocationBudget(t *testing.T) {
	q := New[struct{}]()
	h := q.NewHandle()
	rng := xrand.NewSeeded(3)

	// Prefill and churn enough to reach the steady state: the LSM levels
	// the mix touches exist, the free lists are warm, and overflow to the
	// shared k-LSM happens on its regular cadence.
	const prefill = 50_000
	for i := 0; i < prefill; i++ {
		h.Insert(rng.Uint64(), struct{}{})
	}
	for i := 0; i < 100_000; i++ {
		if rng.Bool() {
			h.Insert(rng.Uint64(), struct{}{})
		} else {
			h.TryDeleteMin()
		}
	}

	const opsPerRun = 2000
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < opsPerRun/2; i++ {
			h.Insert(rng.Uint64(), struct{}{})
			h.TryDeleteMin()
		}
	})
	perOp := allocs / opsPerRun
	t.Logf("steady-state allocations: %.4f per op (%.0f per %d ops)", perOp, allocs, opsPerRun)
	if perOp > 1.0 {
		t.Fatalf("pooled steady state allocates %.3f per op, budget is <= 1", perOp)
	}
}
