// Command perfbench is the repository benchmark. It runs one workload for a
// fixed number of seconds on a fixed two-CPU budget, checks the outputs of
// the system under test, and prints one JSON result line:
//
//   - engine-mix: the paper's Figure 3 mix (50% insert, 50% delete-min) with
//     hold-model keys on a prefilled in-process klsm queue.
//   - timer-churn: a cancel-heavy tick loop over timerq.
//   - serve-wal: an HTTP client driving a persistent klsmd server process.
//
// run.py builds this program and cmd/klsmd and is the intended entry point;
// see README.md for the metrics and how each one is computed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// cpus is the CPU budget every workload runs on: GOMAXPROCS of this process
// (and of the klsmd child), and the number of in-process worker goroutines.
const cpus = 2

// subRuns is how many independent instances of the system one run
// measures. Each sub-run sets the system up afresh, warms it up, measures
// for its share of the run, and checks its outputs; the measurement windows
// of all sub-runs are pooled. The concurrent engine's speed differs by
// about ±10% from one queue instance to the next, so one instance per run
// made runs disagree by that much.
const subRuns = 4

// warmup runs the workload unmeasured between set-up and measurement.
const warmup = time.Second

// windowsPerSecond splits measurement into windows; every figure is
// computed per window and summarized across windows (see summarize).
const windowsPerSecond = 2

// config is the command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	klsmd    string
	workdir  string
}

// outcome accumulates the sub-runs of one run.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	// setup holds the set-up time of every sub-run.
	setup []time.Duration
	// windows holds the per-window figures of all sub-runs by metric name,
	// and steal the host's steal share of each of those windows; see
	// summarize.
	windows map[string][]float64
	steal   []float64
	// layers holds the counter-based per-layer metrics, averaged over the
	// sub-runs.
	layers map[string]float64
}

func newOutcome() *outcome {
	return &outcome{correct: true, windows: map[string][]float64{}, layers: map[string]float64{}}
}

// perLayerUnits lists every per-layer metric with its unit. Each workload
// reports all of them; a layer the workload does not pass through reads 0.
var perLayerUnits = map[string]string{
	"e2e_p99_us":                     "us",
	"insert_p50_us":                  "us",
	"insert_p99_us":                  "us",
	"delete_p50_us":                  "us",
	"delete_p99_us":                  "us",
	"engine_buffer_pop_share":        "ratio",
	"engine_window_items_per_delete": "count",
	"engine_window_builds_per_kdel":  "count",
	"engine_spy_calls_per_kdel":      "count",
	"engine_merges_per_insert":       "count",
	"engine_overflows_per_kins":      "count",
	"engine_shared_retries_per_kins": "count",
	"heap_bytes_per_op":              "B",
	"engine_drain_rank_mean":         "count",
	"timer_footprint_per_pending":    "ratio",
	"timer_garbage_per_pending":      "ratio",
	"server_keys_per_flush":          "count",
	"server_wait_share":              "ratio",
	"server_cpus":                    "cpu",
	"wal_records_per_fsync":          "count",
	"wal_records_per_write":          "count",
	"wal_fsyncs_per_s":               "1/s",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "engine-mix, timer-churn or serve-wal")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds, split over the sub-runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	flag.StringVar(&cfg.klsmd, "klsmd", "", "klsmd binary (serve-wal)")
	flag.StringVar(&cfg.workdir, "workdir", "", "scratch directory for server data (serve-wal)")
	flag.Parse()
	cfg.trace = *trace == 1
	if cfg.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	runtime.GOMAXPROCS(cpus)

	var subRun func(cfg config, seed uint64, out *outcome) error
	switch cfg.workload {
	case "engine-mix":
		subRun = engineSubRun
	case "timer-churn":
		subRun = timerSubRun
	case "serve-wal":
		subRun = serveSubRun
	default:
		fatalf("unknown workload %q (want engine-mix, timer-churn or serve-wal)", cfg.workload)
	}
	out := newOutcome()
	for i := 0; i < subRuns; i++ {
		if err := subRun(cfg, mix64(cfg.seed)+uint64(i), out); err != nil {
			fatalf("%s: %v", cfg.workload, err)
		}
	}

	res := result{Correct: out.correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if cfg.trace {
		for name, unit := range perLayerUnits {
			v := out.layers[name]
			if w, ok := out.windows[name]; ok {
				v = summarize(w, out.steal)
			}
			res.Metrics[name] = metric{v, unit}
		}
	} else {
		res.Metrics["throughput"] = metric{summarize(out.windows["throughput"], out.steal), "1/s"}
		res.Metrics["latency_p50_us"] = metric{summarize(out.windows["latency_p50_us"], out.steal), "us"}
		res.Metrics["latency_p90_us"] = metric{summarize(out.windows["latency_p90_us"], out.steal), "us"}
		res.Metrics["setup_s"] = metric{median(out.setup).Seconds(), "s"}
	}
	logf("%s: setup %v, windows %d, attempted %d, failed %d, correct %v",
		cfg.workload, out.setup, len(out.windows["throughput"]), out.attempted, out.failed, out.correct)
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// logf reports progress on standard error; standard output carries only the
// result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// phase is the timeline of one sub-run after set-up: a warm-up, then n
// windows of equal length.
type phase struct {
	start time.Time
	win   time.Duration
	n     int
}

// newPhase starts the timeline of one sub-run of a run measuring seconds.
func newPhase(seconds int) phase {
	n := max(seconds*windowsPerSecond/subRuns, 1)
	return phase{start: time.Now().Add(warmup), win: time.Second / windowsPerSecond, n: n}
}

// window returns the window t falls in: -1 during warm-up, n or more once
// measurement is over.
func (p phase) window(t time.Time) int {
	d := t.Sub(p.start)
	if d < 0 {
		return -1
	}
	return int(d / p.win)
}

// end is the instant measurement ends.
func (p phase) end() time.Time { return p.start.Add(time.Duration(p.n) * p.win) }

// sleepUntil blocks until t.
func sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// watch blocks until the phase ends and returns the host's steal share of
// each window. It calls atStart as the first window opens and atEnd as the
// last one closes, for the workload's counter snapshots.
func (p phase) watch(atStart, atEnd func()) []float64 {
	steal := make([]float64, p.n)
	var s0, t0 uint64
	for w := 0; w <= p.n; w++ {
		sleepUntil(p.start.Add(time.Duration(w) * p.win))
		switch w {
		case 0:
			atStart()
		case p.n:
			atEnd()
		}
		s, t := readSteal()
		if w > 0 {
			steal[w-1] = ratio(float64(s-s0), float64(t-t0))
		}
		s0, t0 = s, t
	}
	return steal
}

// addWindows appends one sub-run's per-window figures: throughput, the
// end-to-end latency (stream latE2E) and the insert- and delete-path
// latencies, with the host's steal share of each window.
func (out *outcome) addWindows(p phase, recs []*recorder, steal []float64) {
	out.steal = append(out.steal, steal...)
	thr, p50, p90, p99 := windowStats(p, recs, latE2E)
	_, i50, _, i99 := windowStats(p, recs, latInsert)
	_, d50, _, d99 := windowStats(p, recs, latDelete)
	for name, w := range map[string][]float64{
		"throughput": thr, "latency_p50_us": p50, "latency_p90_us": p90, "e2e_p99_us": p99,
		"insert_p50_us": i50, "insert_p99_us": i99, "delete_p50_us": d50, "delete_p99_us": d99,
	} {
		out.windows[name] = append(out.windows[name], w...)
	}
	logf("latency samples %d, throughput by window %.4g, steal %.2f", samples(recs, latE2E), thr, steal)
}

// addLayer adds one sub-run's value of a counter-based per-layer metric.
func (out *outcome) addLayer(name string, v float64) { out.layers[name] += v / subRuns }
