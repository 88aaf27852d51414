package core

import (
	"sync"
	"testing"

	"klsm/internal/xrand"
)

// drainAll deletes until the queue reports empty, returning the number of
// successful deletes. Single-threaded (call after workers have joined).
func drainAll[V any](t *testing.T, q *Queue[V], h *Handle[V]) int64 {
	t.Helper()
	var deletes int64
	misses := 0
	for q.Size() > 0 {
		if _, _, ok := h.TryDeleteMin(); ok {
			deletes++
			misses = 0
			continue
		}
		misses++
		if misses > 1000 {
			t.Fatalf("queue reports Size=%d but TryDeleteMin keeps failing", q.Size())
		}
	}
	return deletes
}

// TestReclaimAccountingSequential is the exactly-once ledger in its
// simplest setting: one handle, insert/delete everything, quiesce, and
// every taken item must have been released to the item pool exactly once.
func TestReclaimAccountingSequential(t *testing.T) {
	q := NewQueue(Config[int]{K: 64, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	rng := xrand.NewSeeded(17)

	const n = 20_000
	var inserted int64
	for i := 0; i < n; i++ {
		h.Insert(rng.Uint64(), i)
		inserted++
	}
	deleted := drainAll(t, q, h)
	if deleted != inserted {
		t.Fatalf("deleted %d of %d inserted", deleted, inserted)
	}
	q.Quiesce()
	rs := q.ReclaimStats()
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d (reclaimed=%d leaked blocks=%d)",
			rs.ItemPuts, inserted, rs.ItemsReclaimed, rs.LimboLeaked)
	}
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero (reachability bug)", rs.ItemsLostLive)
	}
	if rs.LimboLeaked != 0 {
		t.Fatalf("%d blocks leaked at a limbo cap in a single-threaded run", rs.LimboLeaked)
	}

	// A second round must be served largely from recycled items: the §4.4
	// loop is closed when inserts observe reuse.
	for i := 0; i < n; i++ {
		h.Insert(rng.Uint64(), i)
	}
	drainAll(t, q, h)
	q.Quiesce()
	rs2 := q.ReclaimStats()
	if rs2.ItemReuses == 0 {
		t.Fatal("no insert was served from a recycled item")
	}
	if rs2.ItemPuts != 2*inserted {
		t.Fatalf("after round two: releases = %d, want %d", rs2.ItemPuts, 2*inserted)
	}
}

// TestReclaimAccountingStress is the acceptance stress test: several
// goroutines churn the queue concurrently (exercising spy copies, shared
// CAS races, and the limbo paths), then the queue is emptied and quiesced —
// and the ledger must still balance exactly: one release per insert, no
// double-free (Unref panics on underflow, item.Pool.Put panics on live
// items), no lost-live items. Run under -race in CI.
func TestReclaimAccountingStress(t *testing.T) {
	reclaimStress(t, Config[uint64]{K: 128, Mode: Combined, LocalOrdering: true}, 30_000)
}

// TestReclaimAccountingStressKZero is the ledger stress at k = 0, where
// every insert overflows into the shared k-LSM, so every reference moves
// through the shared structure's speculative transfers, committed or
// discarded by contended CASes.
func TestReclaimAccountingStressKZero(t *testing.T) {
	reclaimStress(t, Config[uint64]{K: 0, Mode: Combined, LocalOrdering: true}, 10_000)
}

// TestReclaimAccountingStressOverflow is the ledger stress at a small k:
// DistLSM blocks overflow constantly, so blocks carrying transferred
// references keep entering the shared k-LSM and being merged away there,
// their obligations deferred until the inserting handle has unlinked the
// blocks they came from.
func TestReclaimAccountingStressOverflow(t *testing.T) {
	reclaimStress(t, Config[uint64]{K: 4, Mode: Combined, LocalOrdering: true}, 30_000)
}

// reclaimStress churns a queue of cfg from four goroutines, ops operations
// each, then drains and quiesces it and checks the exactly-once ledger.
func reclaimStress(t *testing.T, cfg Config[uint64], ops int) {
	const workers = 4
	q := NewQueue(cfg)
	handles := make([]*Handle[uint64], workers)
	for i := range handles {
		handles[i] = q.NewHandle()
	}

	var wg sync.WaitGroup
	inserts := make([]int64, workers)
	deletes := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w]
			rng := xrand.NewSeeded(uint64(w)*977 + 13)
			for i := 0; i < ops; i++ {
				// Insert-biased so the end state is non-trivial to drain.
				if rng.Intn(5) < 3 {
					h.Insert(rng.Uint64(), uint64(i))
					inserts[w]++
				} else if _, _, ok := h.TryDeleteMin(); ok {
					deletes[w]++
				}
			}
		}(w)
	}
	wg.Wait()

	var inserted, deleted int64
	for w := 0; w < workers; w++ {
		inserted += inserts[w]
		deleted += deletes[w]
	}
	deleted += drainAll(t, q, handles[0])
	if deleted != inserted {
		t.Fatalf("deleted %d of %d inserted", deleted, inserted)
	}

	q.Quiesce()
	rs := q.ReclaimStats()
	t.Logf("inserted=%d releases=%d reuses=%d slabAllocs=%d limboLeaked=%d",
		inserted, rs.ItemPuts, rs.ItemReuses, rs.ItemSlabAllocs, rs.LimboLeaked)
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero (reachability bug)", rs.ItemsLostLive)
	}
	if rs.LimboLeaked != 0 {
		// The caps are sized so a run this small never starves; a leak here
		// means retires outpaced quiescence unexpectedly.
		t.Fatalf("%d blocks leaked at a limbo cap", rs.LimboLeaked)
	}
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d", rs.ItemPuts, inserted)
	}
}

// TestReclaimSurvivesClose: closing a handle drains its items to the shared
// structure and retires its blocks; the remaining handles must still be able
// to delete everything, and the ledger must not double-release. (Item
// references parked in the closing handle's pool may legitimately fall to
// the GC — exactly-once means never-twice here, with the release count
// bounded by the insert count.)
func TestReclaimSurvivesClose(t *testing.T) {
	q := NewQueue(Config[int]{K: 32, Mode: Combined, LocalOrdering: true})
	h1, h2 := q.NewHandle(), q.NewHandle()
	rng := xrand.NewSeeded(41)
	const n = 5_000
	for i := 0; i < n; i++ {
		h1.Insert(rng.Uint64(), i)
		h2.Insert(rng.Uint64(), i)
	}
	h1.Close()
	deleted := drainAll(t, q, h2)
	if deleted != 2*n {
		t.Fatalf("deleted %d of %d", deleted, 2*n)
	}
	q.Quiesce()
	rs := q.ReclaimStats()
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero", rs.ItemsLostLive)
	}
	if rs.ItemPuts > 2*n {
		t.Fatalf("releases %d exceed inserts %d (double free)", rs.ItemPuts, 2*n)
	}
}

// TestReclaimAccountingFilteredMerges extends the acceptance stress test to
// the §4.5 lazy-deletion path: a Drop filter backed by a concurrently
// mutated cancel-set claims items during merges, deletes, spies and
// explicit Compact passes — and the refcount ledger must still balance
// exactly. Every insert acquires one lineage reference; whether the item
// leaves by TryDeleteMin or by a filter claim inside a merge, it must be
// released exactly once: ItemPuts == inserted, no live item freed, no limbo
// leak. Run under -race in CI (the name keeps it inside the TestReclaim
// quality regex).
func TestReclaimAccountingFilteredMerges(t *testing.T) {
	const (
		workers = 4
		ops     = 20_000
	)
	// The cancel-set the filter consults. Values are globally unique
	// (worker*ops + i), so a set of values identifies items exactly.
	var canceled sync.Map
	drop := func(_ uint64, v uint64) bool {
		_, ok := canceled.Load(v)
		return ok
	}
	q := NewQueue(Config[uint64]{K: 128, Mode: Combined, LocalOrdering: true, Drop: drop})
	handles := make([]*Handle[uint64], workers)
	for i := range handles {
		handles[i] = q.NewHandle()
	}

	var wg sync.WaitGroup
	inserts := make([]int64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w]
			rng := xrand.NewSeeded(uint64(w)*1871 + 7)
			// Values this worker inserted and may later cancel.
			var mine []uint64
			for i := 0; i < ops; i++ {
				switch r := rng.Intn(10); {
				case r < 4: // insert
					v := uint64(w*ops + i)
					h.Insert(rng.Uint64(), v)
					mine = append(mine, v)
					inserts[w]++
				case r < 7: // cancel one of our own (popped-already is harmless)
					if len(mine) > 0 {
						j := rng.Intn(len(mine))
						canceled.Store(mine[j], struct{}{})
						mine[j] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
				case r < 9: // delete (the drop-aware path claims filtered items)
					h.TryDeleteMin()
				default:
					if i%4096 == 1 {
						// Occasional full purge concurrent with everything
						// else: dist CopyDropIn swaps and shared Purge CAS
						// races are the paths under test.
						h.Compact()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var inserted int64
	for w := 0; w < workers; w++ {
		inserted += inserts[w]
	}

	// Drain to physical emptiness. TryDeleteMin never surfaces filtered
	// items and Size() drifts under merge-time claims, so alternate
	// surface-drains with Compact passes until the physical footprint is
	// gone instead of trusting either signal alone.
	h := handles[0]
	for round := 0; ; round++ {
		misses := 0
		for misses < 3 {
			if _, _, ok := h.TryDeleteMin(); ok {
				misses = 0
			} else {
				misses++
			}
		}
		// Every handle compacts: a handle's Compact purges its own dist
		// (plus the shared structure), and other handles' dists hold
		// taken-by-spy slots and filter-positive items h0 cannot reach.
		for _, hh := range handles {
			hh.Compact()
		}
		if q.FootprintItems() == 0 {
			break
		}
		if round > 100 {
			t.Fatalf("footprint stuck at %d items after %d drain+compact rounds",
				q.FootprintItems(), round)
		}
	}

	q.Quiesce()
	rs := q.ReclaimStats()
	t.Logf("inserted=%d releases=%d reuses=%d limboLeaked=%d",
		inserted, rs.ItemPuts, rs.ItemReuses, rs.LimboLeaked)
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero (reachability bug)", rs.ItemsLostLive)
	}
	if rs.LimboLeaked != 0 {
		t.Fatalf("%d blocks leaked at a limbo cap", rs.LimboLeaked)
	}
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d (filtered claims must release exactly once)", rs.ItemPuts, inserted)
	}
}
