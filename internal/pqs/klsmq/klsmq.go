// Package klsmq adapts the k-LSM queue (internal/core) to the benchmark
// harness interface. Benchmarks store bare keys, so the payload type is
// struct{} — the generic instantiation compiles to zero overhead.
package klsmq

import (
	"klsm/internal/core"
	"klsm/internal/pqs"
)

// Queue wraps a core k-LSM queue for the harness.
type Queue struct {
	q *core.Queue[struct{}]
}

// New returns a combined k-LSM with the given relaxation parameter.
func New(k int) *Queue {
	return &Queue{q: core.NewQueue(core.Config[struct{}]{
		K:             k,
		Mode:          core.Combined,
		LocalOrdering: true,
	})}
}

// NewNoLocalOrdering returns a combined k-LSM without the Bloom-filter local
// ordering check (ablation E6).
func NewNoLocalOrdering(k int) *Queue {
	return &Queue{q: core.NewQueue(core.Config[struct{}]{
		K:             k,
		Mode:          core.Combined,
		LocalOrdering: false,
	})}
}

// NewDLSM returns the standalone distributed LSM (Figure 3's DLSM).
func NewDLSM() *Queue {
	return &Queue{q: core.NewQueue(core.Config[struct{}]{Mode: core.DistOnly})}
}

// NewNoDelBuf returns a combined k-LSM with the per-handle deletion buffer
// disabled (deletion-buffer ablation E16): every delete-min walks the
// candidate window / min-cache path directly.
func NewNoDelBuf(k int) *Queue {
	return &Queue{q: core.NewQueue(core.Config[struct{}]{
		K:                     k,
		Mode:                  core.Combined,
		LocalOrdering:         true,
		DisableDeletionBuffer: true,
	})}
}

// NewNoSticky returns a combined k-LSM with the sticky skip-shared hint
// disabled (stickiness ablation): the hint dies with its array, as before
// the sticky generalization.
func NewNoSticky(k int) *Queue {
	return &Queue{q: core.NewQueue(core.Config[struct{}]{
		K:                 k,
		Mode:              core.Combined,
		LocalOrdering:     true,
		DisableStickyHint: true,
	})}
}

// NewWithDrop returns a combined k-LSM with the lazy-deletion callback
// (paper §4.5), used by the SSSP benchmark.
func NewWithDrop(k int, drop func(key uint64) bool) *Queue {
	cfg := core.Config[struct{}]{
		K:             k,
		Mode:          core.Combined,
		LocalOrdering: true,
	}
	if drop != nil {
		cfg.Drop = func(key uint64, _ struct{}) bool { return drop(key) }
	}
	return &Queue{q: core.NewQueue(cfg)}
}

// NewHandle implements pqs.Queue.
func (q *Queue) NewHandle() pqs.Handle {
	return &handle{h: q.q.NewHandle()}
}

type handle struct {
	h *core.Handle[struct{}]
}

// Insert implements pqs.Handle.
func (h *handle) Insert(key uint64) { h.h.Insert(key, struct{}{}) }

// TryDeleteMin implements pqs.Handle.
func (h *handle) TryDeleteMin() (uint64, bool) {
	k, _, ok := h.h.TryDeleteMin()
	return k, ok
}

// InsertBatch implements pqs.BatchHandle via the core batch entry point.
func (h *handle) InsertBatch(keys []uint64) { h.h.InsertBatch(keys, nil) }

// DrainMin implements pqs.BatchHandle.
func (h *handle) DrainMin(dst []uint64, n int) []uint64 {
	h.h.DrainMin(n, func(k uint64, _ struct{}) { dst = append(dst, k) })
	return dst
}
