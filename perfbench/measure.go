package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Latency streams a recorder keeps.
const (
	latE2E    = iota // the workload's end-to-end latency
	latInsert        // calls on the insert path
	latDelete        // calls on the delete path
	numLat
)

// recorder is one goroutine's measurements: per window, the operations it
// completed and raw latency samples (nanoseconds) for each stream. Raw
// samples rather than histogram buckets keep every percentile exact.
type recorder struct {
	ops []int64
	lat [numLat][][]uint32
}

func newRecorder(p phase) *recorder {
	r := &recorder{ops: make([]int64, p.n)}
	for s := range r.lat {
		r.lat[s] = make([][]uint32, p.n)
	}
	return r
}

// count adds n completed operations to window w; outside the measured
// phase it does nothing.
func (r *recorder) count(w int, n int64) {
	if w >= 0 && w < len(r.ops) {
		r.ops[w] += n
	}
}

// sample records latency d in stream s of window w.
func (r *recorder) sample(s, w int, d time.Duration) {
	if w < 0 || w >= len(r.ops) {
		return
	}
	ns := uint32(math.MaxUint32)
	if d < time.Duration(math.MaxUint32) {
		ns = uint32(max(d, 0))
	}
	r.lat[s][w] = append(r.lat[s][w], ns)
}

// windowStats merges the recorders window by window. It returns the
// throughput of each window in operations per second and, for stream s, the
// p50, p90 and p99 latency in microseconds of each window (NaN for a window
// without samples).
func windowStats(p phase, recs []*recorder, s int) (thr, p50, p90, p99 []float64) {
	var buf []uint32
	for w := 0; w < p.n; w++ {
		var ops int64
		buf = buf[:0]
		for _, r := range recs {
			ops += r.ops[w]
			buf = append(buf, r.lat[s][w]...)
		}
		thr = append(thr, float64(ops)/p.win.Seconds())
		if len(buf) == 0 {
			p50, p90, p99 = append(p50, math.NaN()), append(p90, math.NaN()), append(p99, math.NaN())
			continue
		}
		slices.Sort(buf)
		p50 = append(p50, quantile(buf, 0.50)/1e3)
		p90 = append(p90, quantile(buf, 0.90)/1e3)
		p99 = append(p99, quantile(buf, 0.99)/1e3)
	}
	return thr, p50, p90, p99
}

// samples counts the latency samples of stream s across all recorders.
func samples(recs []*recorder, s int) int {
	n := 0
	for _, r := range recs {
		for _, w := range r.lat[s] {
			n += len(w)
		}
	}
	return n
}

// quantile returns the q-quantile of sorted integer samples, treating each
// integer v as the interval [v-0.5, v+0.5) and interpolating within the
// interval the quantile falls in. Fast operations repeat the same few
// nanosecond values many times; the interpolation keeps the estimate
// continuous instead of snapping to one of them.
func quantile(sorted []uint32, q float64) float64 {
	target := q * float64(len(sorted))
	i := min(int(target), len(sorted)-1)
	v := sorted[i]
	lo, _ := slices.BinarySearch(sorted, v)
	hi, _ := slices.BinarySearch(sorted, v+1)
	return float64(v) - 0.5 + (target-float64(lo))/float64(hi-lo)
}

// summarize reduces per-window values to one figure: the interquartile
// mean (the mean of the middle half) of the windows in which the host stole
// the least CPU time. The host lends this machine's CPUs to others in bursts
// (2-18% of a run's CPU time was seen), and a burst slows everything in the
// windows it hits; a closed loop of HTTP requests lost up to 37% of its
// throughput that way. The kept windows are those with at most quietSteal,
// and never fewer than the quietest quarter. NaN marks a window without
// samples.
func summarize(vals, steal []float64) float64 {
	idx := make([]int, 0, len(vals))
	for i, v := range vals {
		if !math.IsNaN(v) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0
	}
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(steal[a], steal[b]) })
	cut := max(quietSteal, steal[idx[(len(idx)-1)/4]])
	var kept []float64
	for _, i := range idx {
		if steal[i] <= cut {
			kept = append(kept, vals[i])
		}
	}
	slices.Sort(kept)
	q := len(kept) / 4
	kept = kept[q : len(kept)-q]
	sum := 0.0
	for _, v := range kept {
		sum += v
	}
	return sum / float64(len(kept))
}

// quietSteal is the steal share below which a window counts as undisturbed.
const quietSteal = 0.02

// readSteal returns the steal and total CPU time of the machine, in clock
// ticks, from /proc/stat; zeros where it cannot be read.
func readSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// median returns the median duration.
func median(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// rng is a SplitMix64 generator: tiny, fast, and fully determined by its
// seed, so every input of a run follows from -seed.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream uint64) *rng {
	return &rng{s: mix64(seed*0x9e3779b97f4a7c15 + stream)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// mix64 is the SplitMix64 finalizer, also used to derive payloads from keys
// so the benchmark can check every returned payload against its key.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ledger is an order-independent fingerprint of a multiset of keys: equal
// multisets have equal ledgers, and unequal ones collide only by chance.
type ledger struct {
	n, sum, hash uint64
}

func (l *ledger) add(key uint64) {
	l.n++
	l.sum += key
	l.hash += mix64(key ^ 0x5bd1e995)
}

func (l *ledger) merge(o ledger) {
	l.n += o.n
	l.sum += o.sum
	l.hash += o.hash
}

// minus returns the fingerprint of l with o's multiset removed.
func (l ledger) minus(o ledger) ledger {
	return ledger{l.n - o.n, l.sum - o.sum, l.hash - o.hash}
}

// String formats a ledger for diagnostics.
func (l ledger) String() string { return fmt.Sprintf("{n:%d sum:%x hash:%x}", l.n, l.sum, l.hash) }

// heapAllocs returns the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
