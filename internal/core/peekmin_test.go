package core

import (
	"testing"

	"klsm/internal/xrand"
)

// peekMatrix is the configuration grid PeekMin must behave identically on.
func peekMatrix() []struct {
	name string
	cfg  Config[uint64]
} {
	return []struct {
		name string
		cfg  Config[uint64]
	}{
		{"buf+cache", Config[uint64]{K: 64, Mode: Combined, LocalOrdering: true}},
	}
}

// TestPeekMinMatchesDelete is the single-handle consistency contract: with
// one handle and no concurrent mutation, every PeekMin must return exactly
// the key/value the immediately following TryDeleteMin pops. This pins the
// fix for the buffered fast path and the peek slow path disagreeing (peek
// rescanned the structure while delete popped from the buffer).
func TestPeekMinMatchesDelete(t *testing.T) {
	for _, tc := range peekMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue(tc.cfg)
			h := q.NewHandle()
			rng := xrand.NewSeeded(42)
			const n = 5000
			for i := 0; i < n; i++ {
				h.Insert(rng.Uint64n(1<<40), uint64(i))
			}
			for popped := 0; popped < n; popped++ {
				pk, pv, pok := h.PeekMin()
				if !pok {
					t.Fatalf("pop %d: PeekMin empty with %d items left", popped, n-popped)
				}
				dk, dv, dok := h.TryDeleteMin()
				if !dok || dk != pk || dv != pv {
					t.Fatalf("pop %d: PeekMin (%d,%d) but TryDeleteMin (%d,%d,%v)",
						popped, pk, pv, dk, dv, dok)
				}
			}
			if _, _, ok := h.PeekMin(); ok {
				t.Fatalf("PeekMin non-empty after full drain")
			}
		})
	}
}

// TestPeekMinInterleavedInserts re-checks peek/delete agreement when
// inserts interleave with the peek-then-delete pairs: inserts invalidate
// the deletion buffer and the min caches, which is exactly where a stale
// peek would slip through.
func TestPeekMinInterleavedInserts(t *testing.T) {
	for _, tc := range peekMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue(tc.cfg)
			h := q.NewHandle()
			rng := xrand.NewSeeded(7)
			live := 0
			for op := 0; op < 20_000; op++ {
				if live == 0 || rng.Intn(3) > 0 {
					h.Insert(rng.Uint64n(1<<32), uint64(op))
					live++
					continue
				}
				pk, pv, pok := h.PeekMin()
				dk, dv, dok := h.TryDeleteMin()
				if pok != dok || pk != dk || pv != dv {
					t.Fatalf("op %d: PeekMin (%d,%d,%v) != TryDeleteMin (%d,%d,%v)",
						op, pk, pv, pok, dk, dv, dok)
				}
				if dok {
					live--
				}
			}
		})
	}
}

// TestPeekMinNeverSurfacesDropped installs a Drop filter and checks that
// PeekMin never returns a filtered item in any configuration — the buffered
// path must apply the same drop check the slow path does, claiming
// filter-positive buffer heads instead of reporting them.
func TestPeekMinNeverSurfacesDropped(t *testing.T) {
	for _, tc := range peekMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			// Drop all odd values.
			cfg := tc.cfg
			cfg.Drop = func(_ uint64, v uint64) bool { return v%2 == 1 }
			q := NewQueue(cfg)
			h := q.NewHandle()
			rng := xrand.NewSeeded(99)
			const n = 4000
			evens := 0
			for i := 0; i < n; i++ {
				h.Insert(rng.Uint64n(1<<30), uint64(i))
				if i%2 == 0 {
					evens++
				}
			}
			seen := 0
			for {
				pk, pv, pok := h.PeekMin()
				if pok && pv%2 == 1 {
					t.Fatalf("PeekMin surfaced dropped value %d (key %d)", pv, pk)
				}
				dk, dv, dok := h.TryDeleteMin()
				if pok != dok || pk != dk || pv != dv {
					t.Fatalf("PeekMin (%d,%d,%v) != TryDeleteMin (%d,%d,%v)",
						pk, pv, pok, dk, dv, dok)
				}
				if !dok {
					break
				}
				if dv%2 == 1 {
					t.Fatalf("TryDeleteMin surfaced dropped value %d", dv)
				}
				seen++
			}
			if seen != evens {
				t.Fatalf("drained %d even values, want %d", seen, evens)
			}
		})
	}
}

// TestPeekMinIdempotent: consecutive peeks with no mutation in between must
// agree with each other in every configuration (a peek must not consume or
// rotate buffered candidates).
func TestPeekMinIdempotent(t *testing.T) {
	for _, tc := range peekMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue(tc.cfg)
			h := q.NewHandle()
			rng := xrand.NewSeeded(3)
			for i := 0; i < 1000; i++ {
				h.Insert(rng.Uint64(), uint64(i))
			}
			for i := 0; i < 200; i++ {
				k1, v1, ok1 := h.PeekMin()
				k2, v2, ok2 := h.PeekMin()
				if k1 != k2 || v1 != v2 || ok1 != ok2 {
					t.Fatalf("consecutive peeks disagree: (%d,%d,%v) then (%d,%d,%v)",
						k1, v1, ok1, k2, v2, ok2)
				}
				h.TryDeleteMin()
			}
		})
	}
}

// TestPeekMinAcrossHandles: a peek on one handle while another handle owns
// most of the structure goes through spy copies and shared snapshots
// rather than the owner-local caches. Cross-handle, peek and the following
// delete may legitimately return different keys — both are relaxed
// observations and delete's spy can surface a different candidate — so the
// contract checked here is weaker than the single-handle one: peek and
// delete must agree on emptiness at every step, and the reader must drain
// exactly the inserted population.
func TestPeekMinAcrossHandles(t *testing.T) {
	for _, tc := range peekMatrix() {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQueue(tc.cfg)
			writer, reader := q.NewHandle(), q.NewHandle()
			rng := xrand.NewSeeded(11)
			const n = 3000
			for i := 0; i < n; i++ {
				writer.Insert(rng.Uint64n(1<<20), uint64(i))
			}
			popped := 0
			for {
				_, _, pok := reader.PeekMin()
				_, _, dok := reader.TryDeleteMin()
				if pok != dok {
					t.Fatalf("pop %d: PeekMin ok=%v but TryDeleteMin ok=%v", popped, pok, dok)
				}
				if !dok {
					break
				}
				popped++
			}
			if popped != n {
				t.Fatalf("reader drained %d of %d", popped, n)
			}
		})
	}
}
