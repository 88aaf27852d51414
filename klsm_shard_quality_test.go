// The sharded rank-bound suite: the quality machinery of
// klsm_quality_test.go driven through internal/server's topic router, so
// the composed bound S·T·k is asserted on the same ostat treap ledger the
// single-queue suite uses. It lives in an external test package because the
// router imports klsm.
package klsm_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"klsm"
	"klsm/internal/ostat"
	"klsm/internal/server"
	"klsm/internal/xrand"
)

// newShardedRouter builds S shard queues with relaxation k behind a router.
func newShardedRouter(s, k int) *server.Router {
	queues := make([]*klsm.Queue[string], s)
	for i := range queues {
		queues[i] = klsm.New[string](klsm.WithRelaxation(k))
	}
	return server.NewRouter(queues)
}

// TestKBoundShardedRouter is the zero-slack arm for the sharded service: a
// single goroutine drives one router handle (T = 1 per shard) through a
// random mix of topic inserts, topic batch inserts, global pops and topic
// drains, with the exact global live multiset in an order-statistic treap.
//
// Every key DeleteMinGlobal returns must be among the S·T·k + 1 smallest
// live keys: under serialized access each shard's pop equals its peek, so
// the argmin-of-peeks key has at most T·k smaller keys in every shard (its
// own relaxation at home, the peek bound elsewhere). No slack — at S = 1
// this is exactly the single-queue structural bound, and larger S must not
// leak beyond the composition. Topic drains are shard-local: they promise
// the per-shard bound only, so here they are checked for conservation (a
// drained key must be live) but not global rank.
func TestKBoundShardedRouter(t *testing.T) {
	const topics = 32
	for _, S := range []int{1, 2, 4} {
		for _, k := range []int{0, 8, 256} {
			t.Run(fmt.Sprintf("S=%d/k=%d", S, k), func(t *testing.T) {
				r := newShardedRouter(S, k)
				h := r.NewHandle()
				defer h.Close()
				if got, want := r.Rho(), S*k; got != want {
					t.Fatalf("router rho = %d, want S·T·k = %d", got, want)
				}
				tree := ostat.New(uint64(S)*1009 + uint64(k)*31 + 7)
				rng := xrand.NewSeeded(uint64(S)*2003 + uint64(k)*131 + 5)
				topic := func() string { return fmt.Sprintf("t%02d", rng.Intn(topics)) }
				maxRank := 0
				var dst []klsm.KV[uint64, string]
				const ops = 20_000
				for i := 0; i < ops; i++ {
					switch op := rng.Intn(20); {
					case op < 10 || tree.Len() == 0: // topic insert
						key := rng.Uint64n(1 << 40)
						tree.Insert(key)
						h.Insert(topic(), key, "")
					case op < 12: // topic batch insert
						n := 1 + int(rng.Uint64n(48))
						keys := make([]uint64, n)
						for j := range keys {
							keys[j] = rng.Uint64n(1 << 40)
							tree.Insert(keys[j])
						}
						h.InsertBatch(topic(), keys, nil)
					case op < 18: // global pop: the S·T·k assertion
						key, _, ok := h.DeleteMinGlobal()
						if !ok {
							continue
						}
						rho := r.Rho()
						rank := tree.Rank(key)
						if !tree.Delete(key) {
							t.Fatalf("op %d: global pop returned key %d that is not live", i, key)
						}
						if rank > rho {
							t.Fatalf("op %d: rank %d exceeds S·T·k = %d (sharded relaxation violated)", i, rank, rho)
						}
						if rank > maxRank {
							maxRank = rank
						}
					default: // topic drain: shard-local contract, conservation only
						dst = h.DrainTopic(topic(), dst[:0], 1+int(rng.Uint64n(8)))
						for _, kv := range dst {
							if !tree.Delete(kv.Key) {
								t.Fatalf("op %d: topic drain returned key %d that is not live", i, kv.Key)
							}
						}
					}
				}
				t.Logf("max observed global rank %d (bound S·T·k = %d)", maxRank, S*k)
			})
		}
	}
}

// TestKBoundShardedRouterConcurrent is the race-mode arm: P workers, each
// with its own router handle (so T = P per shard), hammer the sharded queue
// while per-shard treaps track each shard's live multiset under a mutex.
// Values carry the owning shard, so every key coming back out is checked
// against its home shard's ledger.
//
// What is asserted is the per-shard contract, which is what survives
// concurrency: a rank-checked pop — topic-scoped or the shard component of
// a global pop — holds the lock across the take, where its home-shard rank
// is bounded by that shard's ρ = T·k plus the P-1 linearization slack of
// the unsharded concurrent suite. The global S·T·k envelope is exact only
// under serialized access (asserted zero-slack above): a concurrent deleter
// can empty the argmin shard between peek and pop, making the cross-shard
// choice stale by an unbounded amount — the standard caveat of
// choice-of-shards composition — so the observed global rank is logged, not
// asserted. Free-running pops check conservation only. Run under -race.
func TestKBoundShardedRouterConcurrent(t *testing.T) {
	const (
		workers = 4
		k       = 64
		rounds  = 2_500
		topics  = 16
	)
	for _, S := range []int{2, 4} {
		t.Run(fmt.Sprintf("S=%d", S), func(t *testing.T) {
			r := newShardedRouter(S, k)
			trees := make([]*ostat.Tree, S)
			for i := range trees {
				trees[i] = ostat.New(uint64(S)*73 + uint64(i)*11 + 3)
			}
			var (
				mu            sync.Mutex
				maxShardRank  int
				maxGlobalRank int
				checked       int64
				bad           error
			)
			// shardOf recovers a popped key's home shard from its value tag.
			shardOf := func(v string) int {
				s, err := strconv.Atoi(v)
				if err != nil || s < 0 || s >= S {
					return -1
				}
				return s
			}
			// consume removes key from its home-shard treap, locked by the
			// caller; popped values always carry the shard tag.
			consume := func(w int, key uint64, v, op string) {
				s := shardOf(v)
				if s < 0 {
					if bad == nil {
						bad = fmt.Errorf("worker %d: %s returned key %d with bad shard tag %q", w, op, key, v)
					}
					return
				}
				if !trees[s].Delete(key) && bad == nil {
					bad = fmt.Errorf("worker %d: %s returned key %d not live on shard %d", w, op, key, s)
				}
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := r.NewHandle()
					rng := xrand.NewSeeded(uint64(S)*500009 + uint64(w)*104729 + 17)
					topic := func() string { return fmt.Sprintf("t%02d", rng.Intn(topics)) }
					var dst []klsm.KV[uint64, string]
					for i := 0; i < rounds; i++ {
						switch v := rng.Intn(100); {
						case v < 35: // topic insert, tree and shard in step
							tp := topic()
							s := r.Shard(tp)
							key := rng.Uint64n(1 << 40)
							mu.Lock()
							trees[s].Insert(key)
							h.Insert(tp, key, strconv.Itoa(s))
							mu.Unlock()
						case v < 45: // topic batch insert
							tp := topic()
							s := r.Shard(tp)
							n := 1 + int(rng.Uint64n(24))
							keys := make([]uint64, n)
							vals := make([]string, n)
							for j := range keys {
								keys[j] = rng.Uint64n(1 << 40)
								vals[j] = strconv.Itoa(s)
							}
							mu.Lock()
							for _, key := range keys {
								trees[s].Insert(key)
							}
							h.InsertBatch(tp, keys, vals)
							mu.Unlock()
						case v < 57: // rank-checked global pop at the linearization point
							mu.Lock()
							key, val, ok := h.DeleteMinGlobal()
							if ok {
								s := shardOf(val)
								if s < 0 {
									if bad == nil {
										bad = fmt.Errorf("worker %d: global pop key %d has bad shard tag %q", w, key, val)
									}
									mu.Unlock()
									continue
								}
								shardRank := trees[s].Rank(key)
								global := shardRank
								for j := range trees {
									if j != s {
										global += trees[j].Rank(key)
									}
								}
								present := trees[s].Delete(key)
								bound := r.Queue(s).Rho() + workers - 1
								checked++
								if shardRank > maxShardRank {
									maxShardRank = shardRank
								}
								if global > maxGlobalRank {
									maxGlobalRank = global
								}
								if !present && bad == nil {
									bad = fmt.Errorf("worker %d: global pop key %d not live on shard %d", w, key, s)
								}
								if shardRank > bound && bad == nil {
									bad = fmt.Errorf("worker %d: shard %d rank %d exceeds ρ+P-1 = %d", w, s, shardRank, bound)
								}
							}
							mu.Unlock()
						case v < 70: // rank-checked topic pop at the linearization point
							tp := topic()
							mu.Lock()
							dst = h.DrainTopic(tp, dst[:0], 1)
							if len(dst) == 1 {
								key := dst[0].Key
								s := shardOf(dst[0].Value)
								if s < 0 {
									if bad == nil {
										bad = fmt.Errorf("worker %d: topic pop key %d has bad shard tag %q", w, key, dst[0].Value)
									}
									mu.Unlock()
									continue
								}
								rank := trees[s].Rank(key)
								present := trees[s].Delete(key)
								bound := r.Queue(s).Rho() + workers - 1
								checked++
								if rank > maxShardRank {
									maxShardRank = rank
								}
								if !present && bad == nil {
									bad = fmt.Errorf("worker %d: topic pop key %d not live on shard %d", w, key, s)
								}
								if rank > bound && bad == nil {
									bad = fmt.Errorf("worker %d: shard %d rank %d exceeds ρ+P-1 = %d", w, s, rank, bound)
								}
							}
							mu.Unlock()
						case v < 85: // free-running global pop: conservation only
							key, val, ok := h.DeleteMinGlobal()
							if !ok {
								continue
							}
							mu.Lock()
							consume(w, key, val, "global pop")
							mu.Unlock()
						default: // free-running topic drain: conservation only
							dst = h.DrainTopic(topic(), dst[:0], 1+int(rng.Uint64n(8)))
							mu.Lock()
							for _, kv := range dst {
								consume(w, kv.Key, kv.Value, "topic drain")
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
				t.Fatal("no rank-checked pops ran")
			}
			live := 0
			for _, tr := range trees {
				live += tr.Len()
			}
			if got := r.Size(); got != live {
				t.Errorf("router size %d != treap live count %d (conservation)", got, live)
			}
			t.Logf("S=%d: %d rank-checked pops, max shard rank %d (per-shard bound %d), max observed global rank %d (serialized envelope S·T·k = %d)",
				S, checked, maxShardRank, k*workers+workers-1, maxGlobalRank, S*workers*k)
		})
	}
}
