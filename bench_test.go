// Benchmarks regenerating the paper's evaluation (§6), one family per
// figure, plus the ablations indexed in DESIGN.md. See EXPERIMENTS.md for
// the mapping to the paper and recorded results.
//
// Figure 3 (throughput/thread/s, 50/50 mix, prefilled):
//
//	go test -bench 'BenchmarkFig3' -cpu 1,2,4,8 -benchtime 1s
//
// The per-op time reported at -cpu T is the inverse of throughput/thread;
// paper scale uses KLSM_BENCH_PREFILL=10000000.
//
// Figure 4 (SSSP execution time):
//
//	go test -bench 'BenchmarkFig4' -benchtime 5x
//
// Ablations: BenchmarkAblation*.
package klsm

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"klsm/internal/graph"
	"klsm/internal/harness"
	"klsm/internal/pqs"
	"klsm/internal/pqs/klsmq"
	"klsm/internal/sssp"
	"klsm/internal/xrand"
)

// benchPrefill returns the Figure 3 prefill size (paper: 1e6 and 1e7),
// overridable via KLSM_BENCH_PREFILL for paper-scale runs.
func benchPrefill() int {
	if s := os.Getenv("KLSM_BENCH_PREFILL"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			return v
		}
	}
	return 100_000
}

// benchGraphNodes returns the Figure 4 graph size (paper: 10000 nodes at
// p=0.5), overridable via KLSM_BENCH_NODES.
func benchGraphNodes() int {
	if s := os.Getenv("KLSM_BENCH_NODES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 1 {
			return v
		}
	}
	return 1000
}

// runMix drives the 50/50 throughput mix under b.RunParallel; sweep thread
// counts with -cpu 1,2,4,8,... so ns/op at -cpu T is per-thread op latency
// (the reciprocal of Figure 3's throughput/thread/s).
func runMix(b *testing.B, q pqs.Queue) {
	if testing.Short() {
		b.Skip("multi-second throughput loop; skipped with -short")
	}
	b.ReportAllocs()
	prefill := benchPrefill()
	h := q.NewHandle()
	rng := xrand.NewSeeded(42)
	for i := 0; i < prefill; i++ {
		h.Insert(rng.Uint64())
	}
	pqs.FlushHandle(h)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := q.NewHandle()
		rng := xrand.New()
		for pb.Next() {
			if rng.Bool() {
				h.Insert(rng.Uint64())
			} else {
				h.TryDeleteMin()
			}
		}
	})
}

// runBatchInsert measures per-key insert cost through the public API; b.N
// counts keys, so ns/op is directly comparable between the batched and the
// equivalent-singles arm. The queue is drained outside the timer whenever it
// grows past a bound, keeping the measured structure at steady-state size.
func runBatchInsert(b *testing.B, size int, batched bool) {
	b.ReportAllocs()
	q := New[struct{}]()
	h := q.NewHandle()
	rng := xrand.NewSeeded(977)
	keys := make([]uint64, size)
	pending := 0
	b.ResetTimer()
	for n := 0; n < b.N; n += size {
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		if batched {
			h.InsertBatch(keys, nil)
		} else {
			for _, k := range keys {
				h.Insert(k, struct{}{})
			}
		}
		pending += size
		if pending >= 1<<16 {
			b.StopTimer()
			for {
				if _, _, ok := h.TryDeleteMin(); !ok {
					break
				}
			}
			pending = 0
			b.StartTimer()
		}
	}
}

// BenchmarkBatchInsert compares Handle.InsertBatch against the equivalent
// loop of single Inserts at the issue's batch sizes (DESIGN.md, "Batch
// operations"; recorded in BENCH_pr5-batchapi-sweep.json / EXPERIMENTS.md
// E14). The structural claim under test: a batch of n keys is one sort plus
// one ⌈log₂n⌉-level block publication, versus n level-0 merge cascades.
func BenchmarkBatchInsert(b *testing.B) {
	for _, size := range []int{8, 64, 512} {
		size := size
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) { runBatchInsert(b, size, true) })
		b.Run(fmt.Sprintf("single-%d", size), func(b *testing.B) { runBatchInsert(b, size, false) })
	}
}

// BenchmarkHandleFreeParallel runs the handle-free Insert + TryDeleteMin
// pair under b.RunParallel on a prefilled queue, so the handle registry's
// borrow and return — the cost every handle-free call adds to an explicit
// Handle's — shows up per op as it scales with -cpu:
//
//	go test -bench HandleFreeParallel -run xxx -cpu 1,2,4
//
// b.N counts pairs.
func BenchmarkHandleFreeParallel(b *testing.B) {
	b.ReportAllocs()
	q := New[int]()
	rng := xrand.NewSeeded(42)
	for i := 0; i < benchPrefill(); i++ {
		q.Insert(rng.Uint64(), i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := xrand.New()
		for pb.Next() {
			q.Insert(rng.Uint64(), 0)
			q.TryDeleteMin()
		}
	})
}

// BenchmarkFig3Throughput is the Figure 3 queue line-up.
func BenchmarkFig3Throughput(b *testing.B) {
	for _, spec := range harness.Figure3Specs() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			// Thread-count-sized queues (SprayList, MultiQueue) use the
			// -cpu value, which b.RunParallel exposes as GOMAXPROCS.
			runMix(b, spec.New(runtime.GOMAXPROCS(0)))
		})
	}
}

// fig4Graph lazily builds and caches the benchmark graph.
var fig4Cache *graph.CSR

func fig4Graph(b *testing.B) *graph.CSR {
	if testing.Short() {
		b.Skip("multi-second SSSP benchmark; skipped with -short")
	}
	if fig4Cache == nil {
		n := benchGraphNodes()
		fig4Cache = graph.ErdosRenyi(n, 0.5, 100_000_000, 42)
	}
	return fig4Cache
}

// BenchmarkFig4SSSPThreads is Figure 4 (left): SSSP time vs. worker count
// at k=256 for the three queues.
func BenchmarkFig4SSSPThreads(b *testing.B) {
	g := fig4Graph(b)
	for _, workers := range []int{1, 2, 4, 8} {
		for _, spec := range harness.Figure4Specs(256) {
			spec := spec
			b.Run(fmt.Sprintf("%s/workers=%d", spec.Name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := sssp.Run(g, 0, workers, spec.NewSSSP)
					b.ReportMetric(float64(res.Processed), "pops/run")
				}
			})
		}
	}
}

// BenchmarkFig4SSSPK is Figure 4 (right): SSSP time vs. k at a fixed worker
// count.
func BenchmarkFig4SSSPK(b *testing.B) {
	g := fig4Graph(b)
	_, seqPops := graph.Dijkstra(g, 0)
	const workers = 4 // the paper fixes 10 threads; scale to local cores
	for _, k := range []int{0, 1, 4, 16, 64, 256, 1024, 4096, 16384} {
		for _, spec := range harness.Figure4Specs(k) {
			spec := spec
			b.Run(fmt.Sprintf("%s/k=%d", spec.Name, k), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := sssp.Run(g, 0, workers, spec.NewSSSP)
					b.ReportMetric(float64(res.Processed-seqPops), "extra-iters")
				}
			})
		}
	}
}

// BenchmarkAblationLocalOrdering measures the cost of the Bloom-filter
// local-ordering check (DESIGN.md E6).
func BenchmarkAblationLocalOrdering(b *testing.B) {
	b.Run("on", func(b *testing.B) { runMix(b, klsmq.New(256)) })
	b.Run("off", func(b *testing.B) { runMix(b, klsmq.NewNoLocalOrdering(256)) })
}

// BenchmarkAblationLazyDeletion measures the §4.5 lazy-deletion extension's
// effect on SSSP (DESIGN.md E7): with the Drop hook, stale entries are
// purged during maintenance; without it every stale entry must be popped.
func BenchmarkAblationLazyDeletion(b *testing.B) {
	g := fig4Graph(b)
	with := func(workers int, drop func(uint64) bool) pqs.Queue {
		return klsmq.NewWithDrop(256, drop)
	}
	without := func(workers int, drop func(uint64) bool) pqs.Queue {
		return klsmq.New(256)
	}
	b.Run("with-drop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := sssp.Run(g, 0, 4, with)
			b.ReportMetric(float64(res.Stale), "stale-pops/run")
		}
	})
	b.Run("without-drop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := sssp.Run(g, 0, 4, without)
			b.ReportMetric(float64(res.Stale), "stale-pops/run")
		}
	})
}

// BenchmarkAblationSpy isolates the spy path (DESIGN.md E8): consumers
// delete far more than they insert, so their DistLSMs run dry and most
// delete-mins must spy — the DLSM's known scalability limit (§7). A trickle
// of inserts (1 in 8 ops) keeps the structure live; without it the
// benchmark degenerates into scanning permanently dead producer blocks.
func BenchmarkAblationSpy(b *testing.B) {
	if testing.Short() {
		b.Skip("throughput loop; skipped with -short")
	}
	b.ReportAllocs()
	q := klsmq.NewDLSM()
	producer := q.NewHandle()
	rng := xrand.NewSeeded(7)
	for i := 0; i < 10_000; i++ {
		producer.Insert(rng.Uint64())
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		h := q.NewHandle() // empty DistLSM: deletes must spy first
		r := xrand.New()
		for pb.Next() {
			if r.Intn(8) == 0 {
				h.Insert(r.Uint64())
			} else {
				h.TryDeleteMin()
			}
		}
	})
}

// BenchmarkAblationKSweep shows the throughput/quality knob of the k-LSM
// directly: the same mix at increasing k.
func BenchmarkAblationKSweep(b *testing.B) {
	for _, k := range []int{0, 4, 64, 256, 4096} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			runMix(b, klsmq.New(k))
		})
	}
}

// BenchmarkQualityRankError reports the empirical rank-error statistics of
// the relaxed queues as benchmark metrics (DESIGN.md E5).
func BenchmarkQualityRankError(b *testing.B) {
	if testing.Short() {
		b.Skip("sequential quality replay; skipped with -short")
	}
	for _, k := range []int{4, 256, 4096} {
		k := k
		b.Run(fmt.Sprintf("kLSM-nolocal-k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := harness.RankError(klsmq.NewNoLocalOrdering(k), 10_000, 50_000, uint64(i))
				b.ReportMetric(float64(res.MaxRank), "max-rank")
				b.ReportMetric(res.MeanRank, "mean-rank")
			}
		})
	}
}
