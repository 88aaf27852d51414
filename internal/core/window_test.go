package core

import (
	"testing"

	"klsm/internal/xrand"
)

// windowStats reads the cursor's candidate-window counters.
func windowStats[V any](h *Handle[V]) (builds, items int64) {
	return h.cursor.WindowBuilds.Load(), h.cursor.WindowItems.Load()
}

// TestBatchDrainWindowCost guards the E14 large-batch regression: a
// DrainMin of B ≥ k used to drain past the candidate window each call and
// pay an O(k) rebuild per refill, eating the batch-insert win. With the
// incremental window plus the drain-sized deletion buffer, the amortized
// window cost of an insert-churn batch loop at B ≥ k must stay a small
// constant per deleted key.
func TestBatchDrainWindowCost(t *testing.T) {
	const (
		k = 512
		b = 2 * k // B ≥ k: the regression regime
	)
	q := NewQueue(Config[int]{K: k, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	rng := xrand.NewSeeded(7)

	keys := make([]uint64, b)
	fill := func() {
		for i := range keys {
			keys[i] = rng.Uint64n(1 << 40)
		}
	}
	fill()
	h.InsertBatch(keys, nil)

	_, i0 := windowStats(h)
	deleted := 0
	const rounds = 16
	for r := 0; r < rounds; r++ {
		fill()
		h.InsertBatch(keys, nil) // churn: each round faces fresh snapshots
		deleted += h.DrainMin(b, func(uint64, int) {})
	}
	_, items := windowStats(h)
	items -= i0
	if deleted < rounds*b/2 {
		t.Fatalf("drained only %d of %d", deleted, rounds*b)
	}
	perKey := float64(items) / float64(deleted)
	t.Logf("%d candidates over %d drained keys: %.1f candidates/key (B=%d, k=%d)",
		items, deleted, perKey, b, k)
	// The eager rebuild paid ≥ k+1 candidates per refill with a refill per
	// ~buffer-size keys — tens of candidates per key. Pin well below that.
	if perKey > 8 {
		t.Fatalf("batch-drain window cost regressed: %.1f candidates/key (bound 8, B=%d ≥ k=%d)",
			perKey, b, k)
	}
}
