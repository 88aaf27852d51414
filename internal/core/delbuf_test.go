package core

import (
	"testing"

	"klsm/internal/xrand"
)

// TestDeletionBufferServesPops: a run of deletes is served mostly from the
// buffer (BufPops tracks deletes) and the results stay exact for a single
// handle: ascending, no loss, no duplication.
func TestDeletionBufferServesPops(t *testing.T) {
	q := NewQueue(Config[int]{K: 64, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	const n = 1000
	for i := 0; i < n; i++ {
		h.Insert(uint64(n-i), i)
	}
	var prev uint64
	for i := 0; i < n; i++ {
		k, _, ok := h.TryDeleteMin()
		if !ok {
			t.Fatalf("empty after %d of %d deletes", i, n)
		}
		if k < prev {
			t.Fatalf("single-handle pops out of order: %d after %d", k, prev)
		}
		prev = k
	}
	if _, _, ok := h.TryDeleteMin(); ok {
		t.Fatal("extra key after full drain")
	}
	if fills, pops := h.BufFills.Load(), h.BufPops.Load(); fills == 0 || pops == 0 {
		t.Fatalf("buffer unused: %d fills, %d pops", fills, pops)
	} else if pops < int64(n)/2 {
		t.Fatalf("buffer served only %d of %d deletes", pops, n)
	}
}

// TestDeletionBufferSpliceOnInsert: an insert by the owning handle may
// undercut every buffered candidate. The next delete must return the fresh
// smaller key, and it must come from the buffer without a refill: the
// insert splices itself in at its ascending position (bufInsert) instead of
// flushing the candidates above it.
func TestDeletionBufferSpliceOnInsert(t *testing.T) {
	q := NewQueue(Config[int]{K: 64, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	for i := 0; i < 100; i++ {
		h.Insert(uint64(1000+i), i)
	}
	if k, _, ok := h.TryDeleteMin(); !ok || k != 1000 {
		t.Fatalf("first delete = %d (%v), want 1000", k, ok)
	}
	if h.BufFills.Load() == 0 {
		t.Skip("buffer did not engage on this configuration")
	}
	fills, pops := h.BufFills.Load(), h.BufPops.Load()
	h.Insert(5, 0)
	if k, _, ok := h.TryDeleteMin(); !ok || k != 5 {
		t.Fatalf("delete after undercutting insert = %d (%v), want 5", k, ok)
	}
	if h.BufPops.Load() == pops {
		t.Fatal("undercutting insert was not served from the buffer")
	}
	if h.BufFills.Load() != fills {
		t.Fatal("undercutting insert forced a refill instead of a splice")
	}
}

// TestDeletionBufferConservation: buffered-but-unpopped candidates are
// never logically deleted, so flushing the buffer (here via Quiesce's
// consolidations and an explicit handle close) must lose nothing — the
// queue drains to exactly the inserted multiset.
func TestDeletionBufferConservation(t *testing.T) {
	q := NewQueue(Config[int]{K: 32, Mode: Combined, LocalOrdering: true})
	h1 := q.NewHandle()
	h2 := q.NewHandle()
	rng := xrand.NewSeeded(11)
	const n = 2000
	seen := make(map[uint64]int)
	for i := 0; i < n; i++ {
		k := rng.Uint64n(1 << 30)
		seen[k]++
		if i%2 == 0 {
			h1.Insert(k, i)
		} else {
			h2.Insert(k, i)
		}
	}
	take := func(h *Handle[int]) {
		k, _, ok := h.TryDeleteMin()
		if !ok {
			t.Fatal("unexpected empty queue")
		}
		if seen[k] == 0 {
			t.Fatalf("key %d deleted but not live", k)
		}
		seen[k]--
	}
	// Leave both handles with warm buffers, then force flush-inducing
	// events: a quiesce (publications break the anchors) and h2's close.
	for i := 0; i < 50; i++ {
		take(h1)
		take(h2)
	}
	q.Quiesce()
	for i := 0; i < 50; i++ {
		take(h2)
	}
	h2.Close()
	for deleted := 100 + 50; deleted < n; deleted++ {
		take(h1)
	}
	if _, _, ok := h1.TryDeleteMin(); ok {
		t.Fatal("extra key after full drain")
	}
	for k, c := range seen {
		if c != 0 {
			t.Fatalf("key %d lost (%d copies undrained)", k, c)
		}
	}
}

// TestDeletionBufferModes: the buffer composes with a single structure —
// DistOnly fills from the local min scan only, and k = 0, whose inserts all
// overflow into the shared k-LSM, from the candidate window only — and
// stays exact for a single handle.
func TestDeletionBufferModes(t *testing.T) {
	for _, cfg := range []Config[int]{
		{K: 16, Mode: DistOnly, LocalOrdering: true},
		{K: 0, Mode: Combined, LocalOrdering: true},
	} {
		mode := cfg.Mode
		q := NewQueue(cfg)
		h := q.NewHandle()
		const n = 500
		for i := 0; i < n; i++ {
			h.Insert(uint64((i*7919)%n), i)
		}
		var prev uint64
		for i := 0; i < n; i++ {
			k, _, ok := h.TryDeleteMin()
			if !ok {
				t.Fatalf("mode %v k %d: empty after %d of %d", mode, cfg.K, i, n)
			}
			if k < prev {
				t.Fatalf("mode %v k %d: pops out of order: %d after %d", mode, cfg.K, k, prev)
			}
			prev = k
		}
		if _, _, ok := h.TryDeleteMin(); ok {
			t.Fatalf("mode %v k %d: extra key after full drain", mode, cfg.K)
		}
		if h.BufFills.Load() == 0 {
			t.Fatalf("mode %v k %d: buffer never filled", mode, cfg.K)
		}
	}
}
