package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"klsm"
)

// engine-mix is the paper's Figure 3 operation mix on an in-process klsm
// queue in its default configuration (combined k-LSM, k = 256): a prefill
// of 10⁵ keys spread over the workers' handles, then every worker flips a
// fair coin per operation between Insert and TryDeleteMin. At 10⁶ keys the
// run-to-run spread of throughput was about twice as wide. Keys follow the
// hold model of discrete-event simulation: an insert's key is the worker's
// last popped key plus a uniform increment below engineSpan. With the
// uniform keys of the paper's plot the queue never settles (pops drain the
// small keys, so later inserts almost always undercut everything queued and
// throughput climbs for the whole run); under the hold model it is
// stationary, and the prefill draws from the stationary key distribution.
// Payloads are derived from keys, so every popped payload is checked, and
// the run ends with a single-handle drain that checks multiset conservation
// and the relaxation bound.
const (
	enginePrefill = 100_000
	engineSpan    = 1 << 32
	// engineSampleEvery times one operation in this many; timing each one
	// would double the cost of the cheapest.
	engineSampleEvery = 16
)

// engineWorker is one goroutine's handle, inputs and tallies.
type engineWorker struct {
	h   *klsm.Handle[uint64]
	rng *rng
	rec *recorder

	// floor is the key last popped; inserts land above it.
	floor uint64

	inserted, deleted ledger
	attempted, failed int64
	corrupt           int64
}

// op performs one insert or delete-min and reports which, and whether a
// delete found a key.
func (w *engineWorker) op() (insert, ok bool) {
	if w.rng.next()&1 == 0 {
		k := w.floor + w.rng.next()%engineSpan
		w.h.Insert(k, mix64(k))
		w.inserted.add(k)
		return true, true
	}
	k, v, ok := w.h.TryDeleteMin()
	if ok {
		if v != mix64(k) {
			w.corrupt++
		}
		w.deleted.add(k)
		w.floor = k
	}
	return false, ok
}

// engineSubRun sets up one queue, measures it, and checks its outputs.
func engineSubRun(cfg config, seed uint64, out *outcome) error {
	runtime.GC()
	start := time.Now()
	q, workers, prefill := engineSetup(seed)
	out.setup = append(out.setup, time.Since(start))
	runtime.GC() // keep set-up garbage out of the measurement

	ph := newPhase(cfg.seconds)
	var wg sync.WaitGroup
	for _, w := range workers {
		w.rec = newRecorder(ph)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ph)
		}()
	}
	var st0, st1 klsm.Stats
	var alloc0, alloc1 uint64
	steal := ph.watch(
		func() { st0, alloc0 = q.Stats(), heapAllocs() },
		func() { st1, alloc1 = q.Stats(), heapAllocs() })
	wg.Wait()

	var recs []*recorder
	var inserted, deleted ledger
	var corrupt int64
	for _, w := range workers {
		recs = append(recs, w.rec)
		inserted.merge(w.inserted)
		deleted.merge(w.deleted)
		out.attempted += w.attempted
		out.failed += w.failed
		corrupt += w.corrupt
	}
	out.addWindows(ph, recs, steal)

	out.engineLayers(st0, st1)
	out.addLayer("heap_bytes_per_op", ratio(float64(alloc1-alloc0), float64(st1.Deleted-st0.Deleted+st1.Inserted-st0.Inserted)))

	// Correctness: workers retire, then one fresh handle drains the queue.
	// What comes out must be exactly what went in and was not popped, every
	// payload must match its key, and no pop may rank beyond ρ.
	for _, w := range workers {
		w.h.Close()
	}
	h := q.NewHandle()
	rho := q.Rho()
	var drained []uint64
	var got ledger
	for {
		k, v, ok := h.TryDeleteMin()
		if !ok {
			break
		}
		if v != mix64(k) {
			corrupt++
		}
		drained = append(drained, k)
		got.add(k)
	}
	h.Close()
	inserted.merge(prefill)
	want := inserted.minus(deleted)
	maxRank, meanRank := ranks(drained)
	out.addLayer("engine_drain_rank_mean", meanRank)
	logf("engine-mix: drained %d keys, rank max %d mean %.3f, rho %d", len(drained), maxRank, meanRank, rho)

	if corrupt > 0 {
		out.correct = false
		logf("engine-mix: %d payloads did not match their keys", corrupt)
	}
	if got != want {
		out.correct = false
		logf("engine-mix: conservation broken: drained %v, expected %v", got, want)
	}
	if maxRank > rho {
		out.correct = false
		logf("engine-mix: drain popped a key of rank %d, beyond rho = %d", maxRank, rho)
	}
	return nil
}

// engineLayers adds the engine's per-layer metrics over the interval
// between two counter snapshots.
func (out *outcome) engineLayers(a, b klsm.Stats) {
	del, ins := float64(b.Deleted-a.Deleted), float64(b.Inserted-a.Inserted)
	out.addLayer("engine_buffer_pop_share", ratio(float64(b.BufferPops-a.BufferPops), del))
	out.addLayer("engine_window_items_per_delete", ratio(float64(b.WindowItems-a.WindowItems), del))
	out.addLayer("engine_window_builds_per_kdel", 1000*ratio(float64(b.WindowBuilds-a.WindowBuilds), del))
	out.addLayer("engine_spy_calls_per_kdel", 1000*ratio(float64(b.SpyCalls-a.SpyCalls), del))
	out.addLayer("engine_merges_per_insert", ratio(float64(b.Merges-a.Merges), ins))
	out.addLayer("engine_overflows_per_kins", 1000*ratio(float64(b.Overflows-a.Overflows), ins))
	out.addLayer("engine_shared_retries_per_kins", 1000*ratio(float64(b.SharedInsertRetries-a.SharedInsertRetries), ins))
}

// engineSetup builds a queue and prefills it through one handle per worker,
// in parallel, so the handles' local structures hold realistic content.
func engineSetup(seed uint64) (*klsm.Queue[uint64], []*engineWorker, ledger) {
	q := klsm.New[uint64]()
	workers := make([]*engineWorker, cpus)
	var wg sync.WaitGroup
	for i := range workers {
		w := &engineWorker{h: q.NewHandle(), rng: newRNG(seed, uint64(100+i))}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr := newRNG(seed, uint64(i))
			for n := 0; n < enginePrefill/cpus; n++ {
				// The hold model's stationary distribution of queued keys
				// above the floor has density falling linearly to zero at
				// engineSpan; invert its CDF.
				u := float64(pr.next()>>11) / (1 << 53)
				k := uint64(engineSpan * (1 - math.Sqrt(1-u)))
				w.h.Insert(k, mix64(k))
				w.inserted.add(k)
			}
		}()
	}
	wg.Wait()
	var prefill ledger
	for _, w := range workers {
		prefill.merge(w.inserted)
		w.inserted = ledger{}
	}
	return q, workers, prefill
}

// run is the worker loop: groups of engineSampleEvery operations, the last
// of each group timed, until the measured phase ends.
func (w *engineWorker) run(ph phase) {
	end := ph.end()
	for {
		now := time.Now()
		if !now.Before(end) {
			return
		}
		win := ph.window(now)
		done := int64(0)
		for i := 0; i < engineSampleEvery-1; i++ {
			if _, ok := w.op(); ok {
				done++
			}
		}
		t0 := time.Now()
		insert, ok := w.op()
		d := time.Since(t0)
		if ok {
			done++
		}
		if win >= 0 {
			w.attempted += engineSampleEvery
			w.failed += engineSampleEvery - done
		}
		w.rec.count(win, done)
		w.rec.sample(latE2E, win, d)
		if insert {
			w.rec.sample(latInsert, win, d)
		} else {
			w.rec.sample(latDelete, win, d)
		}
	}
}

// ranks replays a sequential drain and returns the maximum and mean rank
// of its pops, the rank of a pop being the number of keys still queued
// that are strictly smaller.
func ranks(order []uint64) (maxRank int, mean float64) {
	if len(order) == 0 {
		return 0, 0
	}
	sorted := slices.Clone(order)
	slices.Sort(sorted)
	// Fenwick tree over sorted positions; a 1 marks a key still queued.
	n := len(sorted)
	tree := make([]int32, n+1)
	for i := 1; i <= n; i++ {
		tree[i]++
		if j := i + i&-i; j <= n {
			tree[j] += tree[i]
		}
	}
	taken := make([]bool, n)
	total := 0
	for _, k := range order {
		pos, _ := slices.BinarySearch(sorted, k)
		rank := 0
		for i := pos; i > 0; i -= i & -i {
			rank += int(tree[i])
		}
		for taken[pos] { // equal keys: take the next unused copy
			pos++
		}
		taken[pos] = true
		for i := pos + 1; i <= n; i += i & -i {
			tree[i]--
		}
		total += rank
		maxRank = max(maxRank, rank)
	}
	return maxRank, float64(total) / float64(len(order))
}
