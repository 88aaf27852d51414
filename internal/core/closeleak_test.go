package core

import (
	"sync"
	"testing"

	"klsm/internal/xrand"
)

// TestCloseUnderBusyGuardLeaksNothing targets the §4.4 limbo handoff: a
// handle that closes while a reader stays pinned cannot recycle what it
// retired after the pin (blocks or item references) itself — before the
// handoff they simply died with the handle's pool and every item that
// passed through it leaked to the GC. With the handoff, the obligations
// move to the queue's reaper and the exactly-once ledger must still balance
// to the item: releases == inserts, zero lost-live, zero leaks.
func TestCloseUnderBusyGuardLeaksNothing(t *testing.T) {
	q := NewQueue(Config[int]{K: 64, Mode: Combined, LocalOrdering: true})
	rng := xrand.NewSeeded(101)

	const (
		rounds    = 8
		perHandle = 3_000
	)
	var inserted, deleted int64

	for r := 0; r < rounds; r++ {
		h := q.NewHandle()
		spy := q.dom.Register()
		for i := 0; i < perHandle; i++ {
			// Pin a reader for the tail of the round, so the final
			// operations' retires park in limbo instead of recycling — the
			// state a real spy race leaves behind at close time.
			if i == perHandle-200 {
				spy.Pin()
			}
			h.Insert(rng.Uint64n(1<<40), i)
			inserted++
			if i%3 == 0 {
				if _, _, ok := h.TryDeleteMin(); ok {
					deleted++
				}
			}
		}
		// Close with the reader pinned: the handle cannot release its
		// parked obligations itself and must hand them to the queue's
		// reaper.
		h.Close()
		q.dom.Withdraw(spy)
	}

	h := q.NewHandle()
	deleted += drainAll(t, q, h)
	if deleted != inserted {
		t.Fatalf("deleted %d of %d inserted", deleted, inserted)
	}
	q.Quiesce()
	rs := q.ReclaimStats()
	t.Logf("inserted=%d releases=%d reclaimed=%d lostLive=%d limboLeaked=%d",
		inserted, rs.ItemPuts, rs.ItemsReclaimed, rs.ItemsLostLive, rs.LimboLeaked)
	if rs.LimboLeaked != 0 {
		t.Fatalf("%d obligations leaked at a limbo cap across closes", rs.LimboLeaked)
	}
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero", rs.ItemsLostLive)
	}
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d (the close handoff lost obligations)",
			rs.ItemPuts, inserted)
	}
}

// TestCloseConcurrentWithSpiesBalancesLedger drives closes against live spy
// traffic (real pins, not a synthetic one): workers churn
// insert/delete through short-lived handles while a consumer with an empty
// DistLSM forces spying, then everything is drained and the ledger checked.
// Run under -race in CI.
func TestCloseConcurrentWithSpiesBalancesLedger(t *testing.T) {
	q := NewQueue(Config[uint64]{K: 32, Mode: Combined, LocalOrdering: true})
	const (
		workers = 3
		ops     = 6_000
		// closeEvery is how often a worker closes its handle and opens a
		// new one mid-stream.
		closeEvery = 500
	)
	var wg sync.WaitGroup
	inserts := make([]int64, workers+1)
	deletes := make([]int64, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			rng := xrand.NewSeeded(uint64(w)*313 + 7)
			for i := 0; i < ops; i++ {
				if rng.Intn(5) < 3 {
					h.Insert(rng.Uint64n(1<<40), uint64(i))
					inserts[w]++
				} else if _, _, ok := h.TryDeleteMin(); ok {
					deletes[w]++
				}
				if i%closeEvery == closeEvery-1 {
					// Churn: close mid-stream so the handoff runs while
					// spies are active.
					h.Close()
					h = q.NewHandle()
				}
			}
			h.Close()
		}(w)
	}
	// The spy-heavy consumer: its DistLSM starts empty, so deletes must spy
	// into the workers' structures, pinning for real.
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := q.NewHandle()
		for i := 0; i < ops; i++ {
			if _, _, ok := h.TryDeleteMin(); ok {
				deletes[workers]++
			}
		}
		h.Close()
	}()
	wg.Wait()

	var inserted, deleted int64
	for i := range inserts {
		inserted += inserts[i]
		deleted += deletes[i]
	}
	h := q.NewHandle()
	deleted += drainAll(t, q, h)
	if deleted != inserted {
		t.Fatalf("deleted %d of %d inserted", deleted, inserted)
	}
	q.Quiesce()
	rs := q.ReclaimStats()
	if rs.LimboLeaked != 0 {
		t.Fatalf("%d obligations leaked at a limbo cap", rs.LimboLeaked)
	}
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero", rs.ItemsLostLive)
	}
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d across handle churn", rs.ItemPuts, inserted)
	}
}
