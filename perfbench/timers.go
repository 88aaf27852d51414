package main

import (
	"math/bits"
	"runtime"
	"sync"
	"time"

	"klsm/timerq"
)

// timer-churn is a timeout manager at 2·10⁵ pending timers, on a virtual
// clock so that the work per tick is fixed: deadlines are whole ticks past
// base, and workers race to claim consecutive ticks. The claimer of a tick
// calls Expire for it, then cancels timerCancels of its recently scheduled
// timers and schedules timerSchedules new ones uniformly over the next
// timerHorizon ticks. Half of all removals are cancellations, and the
// pending population holds near timerPending.
//
// The cancellation-pressure Compact is off. Every deadline lies at most
// timerHorizon ticks ahead, so expiry and merges reclaim every tombstone
// without it. With it on, timerq's tombstone estimate only grows (merges
// drop tombstones without lowering it), so full compactions fired every few
// seconds at points that differed from run to run. They cost about a third
// of the throughput and made runs disagree by 14%. At 10⁶ pending timers
// the engine's own run-to-run spread was twice that at 2·10⁵.
const (
	timerPending   = 200_000
	timerHorizon   = 1000
	timerCancels   = timerPending / timerHorizon
	timerSchedules = 2 * timerCancels
	// timerPool bounds each worker's list of cancellation candidates.
	timerPool = 1 << 16
	// Schedule calls and fired timers are timed one in this many.
	timerSampleEvery = 16
)

var timerBase = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)

const tickDur = time.Millisecond

func tickTime(k int64) time.Time { return timerBase.Add(time.Duration(k) * tickDur) }

// pendingTimer is a cancellation candidate.
type pendingTimer struct {
	id   timerq.TimerID
	tick int64
}

// bitmap is a growable set of timer IDs.
type bitmap []uint64

// set adds id and reports whether it was already present.
func (b *bitmap) set(id uint64) bool {
	w := int(id / 64)
	for w >= len(*b) {
		*b = append(*b, 0)
	}
	was := (*b)[w]&(1<<(id%64)) != 0
	(*b)[w] |= 1 << (id % 64)
	return was
}

// timerWorker is one goroutine's inputs and tallies.
type timerWorker struct {
	rng  *rng
	rec  *recorder
	pool []pendingTimer

	fired, canceled, missed bitmap
	duplicates, wrong       int64
	attempted, failed       int64
}

// timerSubRun sets up one timer queue, measures it, and checks its outputs.
func timerSubRun(cfg config, seed uint64, out *outcome) error {
	runtime.GC()
	start := time.Now()
	tq := timerSetup(seed)
	out.setup = append(out.setup, time.Since(start))
	runtime.GC()

	ph := newPhase(cfg.seconds)
	workers := make([]*timerWorker, cpus)
	var (
		wg   sync.WaitGroup
		tick tickClock
	)
	for i := range workers {
		w := &timerWorker{rng: newRNG(seed, uint64(200+i)), rec: newRecorder(ph)}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(tq, ph, &tick)
		}()
	}
	var st0, st timerq.Stats
	var alloc0, alloc1 uint64
	steal := ph.watch(
		func() { st0, alloc0 = tq.Stats(), heapAllocs() },
		func() { st, alloc1 = tq.Stats(), heapAllocs() })
	wg.Wait()

	var recs []*recorder
	for _, w := range workers {
		recs = append(recs, w.rec)
		out.attempted += w.attempted
		out.failed += w.failed
	}
	out.addWindows(ph, recs, steal)
	ops := (st.Scheduled - st0.Scheduled) + (st.Canceled - st0.Canceled) + (st.Fired - st0.Fired)
	out.addLayer("heap_bytes_per_op", ratio(float64(alloc1-alloc0), float64(ops)))
	out.addLayer("timer_footprint_per_pending", ratio(float64(st.Footprint), float64(st.Pending)))
	out.addLayer("timer_garbage_per_pending", ratio(float64(st.GarbageEstimate), float64(st.Pending)))

	// Correctness: a final Expire far past every deadline fires the rest.
	// Then every ID ever issued must have fired exactly once or been
	// canceled (never both), every cancel that reported false must belong
	// to a timer that fired, and every fired timer must carry the deadline
	// it was scheduled with.
	last := tick.last() + timerHorizon + 1
	final := &timerWorker{}
	tq.Expire(tickTime(last), final.emitter(last, -1, nil, time.Time{}))
	ok := final.wrong == 0 && tq.Len() == 0
	issued := uint64(tq.Stats().Scheduled)
	var fired, canceled, missed bitmap
	for _, w := range append(workers, final) {
		ok = ok && w.wrong == 0 && w.duplicates == 0
		fired = fired.union(w.fired, &ok)
		canceled = canceled.union(w.canceled, &ok)
		missed = missed.union(w.missed, nil)
	}
	for id := uint64(1); id <= issued; id++ {
		f, c, m := fired.has(id), canceled.has(id), missed.has(id)
		if f == c || (m && !f) {
			ok = false
			logf("timer-churn: timer %d fired=%v canceled=%v cancel-missed=%v", id, f, c, m)
			break
		}
	}
	if fired.has(0) || fired.count()+canceled.count() != int(issued) {
		ok = false
		logf("timer-churn: %d fired + %d canceled != %d issued", fired.count(), canceled.count(), issued)
	}
	logf("timer-churn: ticks %d, issued %d, fired %d, canceled %d, cancel misses %d",
		tick.last(), issued, fired.count(), canceled.count(), missed.count())
	out.correct = out.correct && ok
	return nil
}

// timerSetup builds a timer queue holding timerPending timers spread
// uniformly over the first timerHorizon ticks, scheduled in parallel.
func timerSetup(seed uint64) *timerq.Queue[int64] {
	tq := timerq.New[int64](timerq.WithCompactionPressure(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < cpus; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newRNG(seed, uint64(i))
			for n := 0; n < timerPending/cpus; n++ {
				k := 1 + int64(r.intn(timerHorizon))
				if _, err := tq.Schedule(tickTime(k), k); err != nil {
					panic(err) // every deadline is inside TimeKey's window
				}
			}
		}()
	}
	wg.Wait()
	return tq
}

// emitter returns Expire's callback for tick now: it checks and records
// each fired timer, and times one in timerSampleEvery from started (the
// moment Expire was called) into window win.
func (w *timerWorker) emitter(now int64, win int, rec *recorder, started time.Time) func(timerq.TimerID, time.Time, int64) {
	n := 0
	return func(id timerq.TimerID, deadline time.Time, tick int64) {
		if tick > now || !deadline.Equal(tickTime(tick)) {
			w.wrong++
		}
		if w.fired.set(uint64(id)) {
			w.duplicates++
		}
		if n++; rec != nil && n%timerSampleEvery == 0 {
			rec.sample(latE2E, win, time.Since(started))
		}
	}
}

// tickClock is the virtual clock. Claiming a tick and expiring it happen
// under one lock, as in a deployment where a single timer goroutine drives
// Expire: ticks expire in order, and the expiry lag measures Expire itself
// rather than waits behind the other worker's Expire.
type tickClock struct {
	mu  sync.Mutex
	now int64
}

func (c *tickClock) last() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// run claims ticks until the measured phase ends.
func (w *timerWorker) run(tq *timerq.Queue[int64], ph phase, clock *tickClock) {
	end := ph.end()
	for {
		clock.mu.Lock()
		started := time.Now()
		if !started.Before(end) {
			clock.mu.Unlock()
			return
		}
		win := ph.window(started)
		clock.now++
		now := clock.now
		fired := tq.Expire(tickTime(now), w.emitter(now, win, w.rec, started))
		w.rec.sample(latDelete, win, time.Since(started))
		clock.mu.Unlock()

		cancels := 0
		for tries := 0; cancels < timerCancels && len(w.pool) > 0 && tries < 4*timerCancels; tries++ {
			i := w.rng.intn(len(w.pool))
			p := w.pool[i]
			w.pool[i] = w.pool[len(w.pool)-1]
			w.pool = w.pool[:len(w.pool)-1]
			if p.tick <= now+2 {
				continue // due or nearly due: leave it to fire
			}
			if tq.Cancel(p.id) {
				w.canceled.set(uint64(p.id))
			} else {
				w.missed.set(uint64(p.id)) // another worker's Expire got it first
			}
			cancels++
		}

		failed := 0
		for n := 0; n < timerSchedules; n++ {
			k := now + 1 + int64(w.rng.intn(timerHorizon))
			timed := n%timerSampleEvery == 0
			var t1 time.Time
			if timed {
				t1 = time.Now()
			}
			id, err := tq.Schedule(tickTime(k), k)
			if timed {
				w.rec.sample(latInsert, win, time.Since(t1))
			}
			if err != nil {
				failed++
				continue
			}
			if len(w.pool) >= timerPool {
				w.pool = append(w.pool[:0], w.pool[timerPool/2:]...)
			}
			w.pool = append(w.pool, pendingTimer{id, k})
		}

		if win >= 0 && win < ph.n {
			w.attempted += int64(1 + cancels + timerSchedules)
			w.failed += int64(failed)
		}
		w.rec.count(ph.window(time.Now()), int64(fired+cancels+timerSchedules-failed))
	}
}

func (b bitmap) has(id uint64) bool {
	w := int(id / 64)
	return w < len(b) && b[w]&(1<<(id%64)) != 0
}

func (b bitmap) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// union returns b ∪ o; with ok non-nil, an ID present in both clears *ok.
func (b bitmap) union(o bitmap, ok *bool) bitmap {
	for len(b) < len(o) {
		b = append(b, 0)
	}
	for i, w := range o {
		if ok != nil && b[i]&w != 0 {
			*ok = false
		}
		b[i] |= w
	}
	return b
}
