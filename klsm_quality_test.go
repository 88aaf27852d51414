package klsm

import (
	"fmt"
	"sync"
	"testing"

	"klsm/internal/ostat"
	"klsm/internal/xrand"
)

// qualityConfigs enumerates the option rows the k-bound suite runs across:
// the default queue, which runs §4.4 reclamation, min caching, the deletion
// buffer and the sticky skip-shared hint. Buffered-but-untaken candidates
// stay live and must count toward the bound, which is exactly what the
// treap's live multiset asserts.
func qualityConfigs() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"reclaim=on/mincache=on", nil},
	}
}

// TestKBoundInterleavedHandles is the enforcement arm of the quality suite:
// P handles driven from one goroutine in a random interleaving, with the
// exact live multiset tracked in an order-statistic treap. Every returned
// key must be among the ρ+1 = T·k+1 smallest live keys — the paper's
// structural bound, asserted with zero slack (no measurement races exist
// in a single-goroutine interleaving). A violation of the relaxation
// contract anywhere in the stack fails this test deterministically.
func TestKBoundInterleavedHandles(t *testing.T) {
	const handles = 4
	for _, k := range []int{0, 8, 256} {
		for _, cfg := range qualityConfigs() {
			t.Run(fmt.Sprintf("k=%d/%s", k, cfg.name), func(t *testing.T) {
				q := New[int](append([]Option{WithRelaxation(k)}, cfg.opts...)...)
				hs := make([]*Handle[int], handles)
				for i := range hs {
					hs[i] = q.NewHandle()
				}
				rho := handles * k
				tree := ostat.New(uint64(k)*31 + 7)
				rng := xrand.NewSeeded(uint64(k)*131 + 5)
				maxRank := 0
				const ops = 20_000
				for i := 0; i < ops; i++ {
					h := hs[rng.Intn(handles)]
					if rng.Intn(10) < 6 || tree.Len() == 0 {
						key := rng.Uint64n(1 << 40)
						tree.Insert(key)
						h.Insert(key, i)
						continue
					}
					key, _, ok := h.TryDeleteMin()
					if !ok {
						continue
					}
					rank := tree.Rank(key)
					if !tree.Delete(key) {
						t.Fatalf("op %d: returned key %d is not live (conservation violation)", i, key)
					}
					if rank > rho {
						t.Fatalf("op %d: rank %d exceeds ρ = T·k = %d (relaxation violated)", i, rank, rho)
					}
					if rank > maxRank {
						maxRank = rank
					}
				}
				t.Logf("max observed rank %d (bound ρ = %d)", maxRank, rho)
			})
		}
	}
}

// TestKBoundBatchOps extends the zero-slack enforcement arm to the v2
// surface: a single-goroutine random interleaving of InsertBatch (sizes up
// to 512), DrainMin, handle-free queue-level operations, and the v1
// single-item ops, with the exact live multiset in an order-statistic
// treap. Every key any drain or delete returns must be among the ρ+1
// smallest live keys at its pop, where ρ = T·k uses the live handle count
// (the registry handle backing the handle-free ops counts toward T like
// any other). Zero measurement slack: a relaxation violation anywhere in
// the batch-block publication or the drain loop fails deterministically.
func TestKBoundBatchOps(t *testing.T) {
	const handles = 3
	for _, k := range []int{0, 8, 256} {
		for _, cfg := range qualityConfigs() {
			t.Run(fmt.Sprintf("k=%d/%s", k, cfg.name), func(t *testing.T) {
				q := New[int](append([]Option{WithRelaxation(k)}, cfg.opts...)...)
				hs := make([]*Handle[int], handles)
				for i := range hs {
					hs[i] = q.NewHandle()
				}
				tree := ostat.New(uint64(k)*17 + 3)
				rng := xrand.NewSeeded(uint64(k)*257 + 13)
				maxRank := 0
				// checkPop asserts one returned key against the live treap.
				checkPop := func(op string, key uint64) {
					rho := q.Rho()
					rank := tree.Rank(key)
					if !tree.Delete(key) {
						t.Fatalf("%s: returned key %d is not live (conservation violation)", op, key)
					}
					if rank > rho {
						t.Fatalf("%s: rank %d exceeds ρ = T·k = %d (relaxation violated)", op, rank, rho)
					}
					if rank > maxRank {
						maxRank = rank
					}
				}
				var dst []KV[uint64, int]
				const rounds = 3000
				for i := 0; i < rounds; i++ {
					h := hs[rng.Intn(handles)]
					switch rng.Intn(10) {
					case 0, 1, 2: // batch insert, random size
						n := 1 + int(rng.Uint64n(64))
						if rng.Intn(20) == 0 {
							n = 512
						}
						keys := make([]uint64, n)
						for j := range keys {
							keys[j] = rng.Uint64n(1 << 40)
							tree.Insert(keys[j])
						}
						h.InsertBatch(keys, nil)
					case 3, 4: // single insert (v1 path in the mix)
						key := rng.Uint64n(1 << 40)
						tree.Insert(key)
						h.Insert(key, i)
					case 5: // handle-free single insert
						key := rng.Uint64n(1 << 40)
						tree.Insert(key)
						q.Insert(key, i)
					case 6, 7: // batch drain; each pop checked in pop order
						dst = h.DrainMin(dst[:0], 1+int(rng.Uint64n(48)))
						for _, kv := range dst {
							checkPop("DrainMin", kv.Key)
						}
					case 8: // handle-free drain
						dst = q.DrainMin(dst[:0], 1+int(rng.Uint64n(16)))
						for _, kv := range dst {
							checkPop("Queue.DrainMin", kv.Key)
						}
					default: // handle-free single delete
						key, _, ok := q.TryDeleteMin()
						if ok {
							checkPop("Queue.TryDeleteMin", key)
						}
					}
				}
				t.Logf("max observed rank %d (final bound ρ = %d)", maxRank, q.Rho())
			})
		}
	}
}

// TestKBoundConcurrentBatch is the race-mode arm for the v2 surface:
// workers drive their own handles with batch and single operations while
// some traffic goes through the handle-free registry. Inserts update tree
// and queue in step; rank-checked deletes hold the lock across the take so
// the rank is measured at the linearization point, where the tree lags by
// at most the number of concurrent takers — the measured bound is
// ρ + (P-1) with ρ = T·k read live (registry handles included). Run under
// -race in CI alongside TestKBoundConcurrent.
func TestKBoundConcurrentBatch(t *testing.T) {
	const (
		workers = 4
		k       = 64
		rounds  = 2500
	)
	for _, cfg := range qualityConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			q := New[int](append([]Option{WithRelaxation(k)}, cfg.opts...)...)
			var (
				mu      sync.Mutex
				tree    = ostat.New(431)
				maxRank int
				checked int64
				bad     error
			)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := q.NewHandle()
					rng := xrand.NewSeeded(uint64(w)*104729 + 17)
					var dst []KV[uint64, int]
					for i := 0; i < rounds; i++ {
						switch r := rng.Intn(100); {
						case r < 30: // batch insert, tree and queue in step
							n := 1 + int(rng.Uint64n(32))
							keys := make([]uint64, n)
							for j := range keys {
								keys[j] = rng.Uint64n(1 << 40)
							}
							mu.Lock()
							for _, key := range keys {
								tree.Insert(key)
							}
							h.InsertBatch(keys, nil)
							mu.Unlock()
						case r < 45: // single insert
							key := rng.Uint64n(1 << 40)
							mu.Lock()
							tree.Insert(key)
							h.Insert(key, i)
							mu.Unlock()
						case r < 55: // handle-free insert
							key := rng.Uint64n(1 << 40)
							mu.Lock()
							tree.Insert(key)
							q.Insert(key, i)
							mu.Unlock()
						case r < 65: // rank-checked delete at the linearization point
							mu.Lock()
							key, _, ok := h.TryDeleteMin()
							if ok {
								rank := tree.Rank(key)
								present := tree.Delete(key)
								bound := q.Rho() + workers - 1
								checked++
								if rank > maxRank {
									maxRank = rank
								}
								if !present && bad == nil {
									bad = fmt.Errorf("worker %d: returned key %d not live", w, key)
								}
								if rank > bound && bad == nil {
									bad = fmt.Errorf("worker %d: rank %d exceeds ρ+P-1 = %d", w, rank, bound)
								}
							}
							mu.Unlock()
						default: // free-running batch drain: conservation only
							dst = h.DrainMin(dst[:0], 1+int(rng.Uint64n(24)))
							mu.Lock()
							for _, kv := range dst {
								if !tree.Delete(kv.Key) && bad == nil {
									bad = fmt.Errorf("worker %d: drained key %d not live", w, kv.Key)
								}
							}
							mu.Unlock()
						}
					}
				}(w)
			}
			wg.Wait()
			if bad != nil {
				t.Fatal(bad)
			}
			if checked == 0 {
				t.Fatal("no rank-checked deletes ran")
			}
			t.Logf("max observed rank %d over %d checked deletes", maxRank, checked)
		})
	}
}

// TestKBoundConcurrent races P goroutines over their own handles while an
// order-statistic treap tracks the live multiset under a mutex. Inserts
// update tree and queue atomically; most deletes run fully concurrent (the
// take races freely, only the tree removal is locked) and check just
// conservation — one in eight holds the lock across the take so its rank
// is measured at the linearization point. At that moment the tree can lag
// by at most P-1 concurrently taken-but-not-yet-removed keys, so the
// measured rank is bounded by ρ + (P-1) = T·k + P - 1 < (k+1)·P — the
// issue-level bound. Run under -race in CI; this is where the reclamation
// machinery, the min caches, and the relaxation bound are exercised
// against real interleavings.
func TestKBoundConcurrent(t *testing.T) {
	const (
		workers = 4
		k       = 64
		ops     = 15_000
	)
	for _, cfg := range qualityConfigs() {
		t.Run(cfg.name, func(t *testing.T) {
			q := New[int](append([]Option{WithRelaxation(k)}, cfg.opts...)...)
			bound := (k+1)*workers - 1
			var (
				mu      sync.Mutex
				tree    = ostat.New(99)
				maxRank int
				checked int64
				bad     error
			)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := q.NewHandle()
					rng := xrand.NewSeeded(uint64(w)*7919 + 3)
					for i := 0; i < ops; i++ {
						r := rng.Intn(80)
						switch {
						case r < 48: // insert, tree and queue in step
							key := rng.Uint64n(1 << 40)
							mu.Lock()
							tree.Insert(key)
							h.Insert(key, i)
							mu.Unlock()
						case r < 52: // rank-checked delete at the linearization point
							mu.Lock()
							key, _, ok := h.TryDeleteMin()
							if ok {
								rank := tree.Rank(key)
								present := tree.Delete(key)
								checked++
								if rank > maxRank {
									maxRank = rank
								}
								if !present && bad == nil {
									bad = fmt.Errorf("worker %d: returned key %d not live", w, key)
								}
								if rank > bound && bad == nil {
									bad = fmt.Errorf("worker %d: rank %d exceeds (k+1)·P-1 = %d", w, rank, bound)
								}
							}
							mu.Unlock()
						default: // free-running delete: conservation only
							key, _, ok := h.TryDeleteMin()
							if !ok {
								continue
							}
							mu.Lock()
							if !tree.Delete(key) && bad == nil {
								bad = fmt.Errorf("worker %d: returned key %d not live", w, key)
							}
							mu.Unlock()
						}
					}
				}(w)
			}
			wg.Wait()
			if bad != nil {
				t.Fatal(bad)
			}
			if checked == 0 {
				t.Fatal("no rank-checked deletes ran")
			}
			t.Logf("max observed rank %d over %d checked deletes (bound %d)", maxRank, checked, bound)
		})
	}
}
