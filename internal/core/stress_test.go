package core

import (
	"sync"
	"testing"

	"klsm/internal/xrand"
)

// TestConcurrentStressAllModes runs both operating modes, and k = 0, where
// every key goes through the shared k-LSM, under real concurrency: a mixed
// insert/delete workload whose deletes force spying (consumers outdelete
// their own inserts), with handle churn mixed in, so spies, closes and §4.4
// retirements race each other. Every inserted key must be extracted exactly
// once, and no live item may reach refcount zero. Meant to run under -race.
func TestConcurrentStressAllModes(t *testing.T) {
	workers := 6
	perWorker := 4000
	if testing.Short() {
		workers, perWorker = 4, 1000
	}
	for _, cfg := range []Config[int]{
		{K: 64, Mode: Combined, LocalOrdering: true},
		{K: 64, Mode: DistOnly, LocalOrdering: true},
		{K: 0, Mode: Combined, LocalOrdering: true},
	} {
		mode := cfg.Mode
		q := NewQueue(cfg)
		var (
			wg       sync.WaitGroup
			inserted = make([][]uint64, workers)
			deleted  = make([][]uint64, workers)
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				h := q.NewHandle()
				rng := xrand.NewSeeded(uint64(id)*7919 + 3)
				base := uint64(id) << 32
				for i := 0; i < perWorker; i++ {
					key := base | uint64(i)
					h.Insert(key, int(id))
					inserted[id] = append(inserted[id], key)
					// Delete more often than we insert so our DistLSM runs
					// dry and TryDeleteMin exercises the spy path.
					for d := 0; d < 2; d++ {
						if k, _, ok := h.TryDeleteMin(); ok {
							deleted[id] = append(deleted[id], k)
						}
					}
					if rng.Intn(1024) == 0 && mode != DistOnly {
						// Handle churn: close and re-register mid-stream.
						h.Close()
						h = q.NewHandle()
					}
				}
			}(w)
		}
		wg.Wait()

		// Drain the remainder and check conservation: every inserted key
		// extracted exactly once, no aliens.
		h := q.NewHandle()
		rest := drainHandle(h)
		seen := make(map[uint64]int)
		total := 0
		for _, keys := range deleted {
			for _, k := range keys {
				seen[k]++
				total++
			}
		}
		for _, k := range rest {
			seen[k]++
			total++
		}
		want := 0
		for _, keys := range inserted {
			for _, k := range keys {
				want++
				if seen[k] != 1 {
					t.Fatalf("mode %v k %d: key %d extracted %d times", mode, cfg.K, k, seen[k])
				}
			}
		}
		if total != want {
			t.Fatalf("mode %v k %d: extracted %d keys, want %d", mode, cfg.K, total, want)
		}
		q.Quiesce()
		if lost := q.ReclaimStats().ItemsLostLive; lost != 0 {
			t.Fatalf("mode %v k %d: %d live items hit refcount zero", mode, cfg.K, lost)
		}
	}
}

// TestMeldConcurrent stresses Meld while both queues are being deleted from
// concurrently: exactly-once deletion must hold across the meld, and so
// must the §4.4 ledger — melded copies hold item references in both
// queues, so after a drain and Quiesce on both, every item must have been
// released exactly once between them and none while still live.
func TestMeldConcurrent(t *testing.T) {
	n := 5000
	if testing.Short() {
		n = 1000
	}
	dst := NewQueue(Config[int]{K: 16, Mode: Combined, LocalOrdering: true})
	src := NewQueue(Config[int]{K: 16, Mode: Combined, LocalOrdering: true})
	hDst := dst.NewHandle()
	hSrc := src.NewHandle()
	for i := 0; i < n; i++ {
		hSrc.Insert(uint64(i), i)
		hDst.Insert(uint64(n+i), n+i)
	}

	var (
		wg      sync.WaitGroup
		results = make([][]uint64, 3)
	)
	// Two concurrent deleters, one per queue, racing the meld.
	for g, qq := range []*Queue[int]{dst, src} {
		wg.Add(1)
		go func(slot int, q *Queue[int]) {
			defer wg.Done()
			h := q.NewHandle()
			for i := 0; i < n; i++ {
				if k, _, ok := h.TryDeleteMin(); ok {
					results[slot] = append(results[slot], k)
				}
			}
		}(g, qq)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		hDst.Meld(src)
	}()
	wg.Wait()

	// Post-meld, everything still reachable lives in dst (melded items may
	// transiently be reachable in src too; exactly-once TryTake dedups).
	results[2] = drainHandle(hDst)
	results[2] = append(results[2], drainHandle(src.NewHandle())...)

	seen := make(map[uint64]int)
	total := 0
	for _, keys := range results {
		for _, k := range keys {
			seen[k]++
			total++
		}
	}
	if total != 2*n {
		t.Fatalf("extracted %d keys, want %d", total, 2*n)
	}
	for k, cnt := range seen {
		if cnt != 1 {
			t.Fatalf("key %d extracted %d times", k, cnt)
		}
	}

	dst.Quiesce()
	src.Quiesce()
	rd, rs := dst.ReclaimStats(), src.ReclaimStats()
	if rd.ItemsLostLive != 0 || rs.ItemsLostLive != 0 {
		t.Fatalf("live items hit refcount zero: dst %d, src %d", rd.ItemsLostLive, rs.ItemsLostLive)
	}
	if puts := rd.ItemPuts + rs.ItemPuts; puts != int64(2*n) {
		t.Fatalf("item releases = %d (dst %d + src %d), want %d; limbo leaked dst %d, src %d",
			puts, rd.ItemPuts, rs.ItemPuts, 2*n, rd.LimboLeaked, rs.LimboLeaked)
	}
}
