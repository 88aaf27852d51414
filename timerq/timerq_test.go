package timerq

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"klsm"
)

// base is an arbitrary in-window instant all test deadlines hang off.
var base = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return base.Add(d) }

func TestScheduleExpireBasic(t *testing.T) {
	q := New[string]()
	ids := make(map[TimerID]string)
	for i := 0; i < 100; i++ {
		id, err := q.Schedule(at(time.Duration(i)*time.Millisecond), fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		if id == 0 {
			t.Fatalf("Schedule returned zero TimerID")
		}
		if _, dup := ids[id]; dup {
			t.Fatalf("duplicate TimerID %d", id)
		}
		ids[id] = fmt.Sprintf("p%d", i)
	}
	if got := q.Len(); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}

	// Nothing is due before the first deadline... except timer 0 itself.
	fired := map[TimerID]string{}
	n := q.Expire(at(50*time.Millisecond), func(id TimerID, deadline time.Time, p string) {
		if deadline.After(at(50 * time.Millisecond)) {
			t.Errorf("fired timer with deadline %v after bound", deadline)
		}
		fired[id] = p
	})
	if n != 51 { // deadlines 0..50ms inclusive
		t.Fatalf("Expire fired %d, want 51", n)
	}
	if q.Len() != 49 {
		t.Fatalf("Len after partial expire = %d, want 49", q.Len())
	}
	// The rest fire on a later tick; none fire twice.
	n = q.Expire(at(time.Hour), func(id TimerID, _ time.Time, p string) {
		if _, dup := fired[id]; dup {
			t.Errorf("timer %d fired twice", id)
		}
		fired[id] = p
	})
	if n != 49 {
		t.Fatalf("second Expire fired %d, want 49", n)
	}
	for id, want := range ids {
		if got, ok := fired[id]; !ok || got != want {
			t.Fatalf("timer %d: fired payload %q ok=%v, want %q", id, got, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after full expire = %d, want 0", q.Len())
	}
	// Empty queue: Expire is a no-op.
	if n := q.Expire(at(2*time.Hour), func(TimerID, time.Time, string) {}); n != 0 {
		t.Fatalf("Expire on empty queue fired %d", n)
	}
}

func TestPastDeadlineFires(t *testing.T) {
	q := New[int]()
	if _, err := q.Schedule(at(-time.Hour), 7); err != nil {
		t.Fatalf("Schedule in the past: %v", err)
	}
	var got int
	if n := q.Expire(at(0), func(_ TimerID, _ time.Time, p int) { got = p }); n != 1 {
		t.Fatalf("Expire fired %d, want 1", n)
	}
	if got != 7 {
		t.Fatalf("payload = %d, want 7", got)
	}
}

func TestCancel(t *testing.T) {
	q := New[int]()
	id1, _ := q.Schedule(at(time.Millisecond), 1)
	id2, _ := q.Schedule(at(2*time.Millisecond), 2)

	if !q.Cancel(id1) {
		t.Fatalf("Cancel(live) = false")
	}
	if q.Cancel(id1) {
		t.Fatalf("Cancel(already canceled) = true")
	}
	if q.Cancel(TimerID(999999)) {
		t.Fatalf("Cancel(never scheduled) = true")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}

	var fired []int
	q.Expire(at(time.Hour), func(_ TimerID, _ time.Time, p int) { fired = append(fired, p) })
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want [2]", fired)
	}
	if q.Cancel(id2) {
		t.Fatalf("Cancel(already fired) = true")
	}
}

func TestReschedule(t *testing.T) {
	q := New[string]()
	id, _ := q.Schedule(at(time.Millisecond), "x")

	ok, err := q.Reschedule(id, at(time.Hour))
	if err != nil || !ok {
		t.Fatalf("Reschedule = %v, %v", ok, err)
	}
	if dl, ok := q.Deadline(id); !ok || !dl.Equal(at(time.Hour)) {
		t.Fatalf("Deadline = %v, %v; want %v", dl, ok, at(time.Hour))
	}

	// Old deadline passes: nothing fires (the stale entry is a tombstone).
	if n := q.Expire(at(time.Minute), func(TimerID, time.Time, string) {}); n != 0 {
		t.Fatalf("Expire at old deadline fired %d, want 0", n)
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d, want 1", q.Len())
	}

	// New deadline: fires once, at the new deadline.
	var deadlines []time.Time
	n := q.Expire(at(2*time.Hour), func(_ TimerID, dl time.Time, _ string) { deadlines = append(deadlines, dl) })
	if n != 1 || len(deadlines) != 1 || !deadlines[0].Equal(at(time.Hour)) {
		t.Fatalf("Expire fired %d with deadlines %v, want 1 at %v", n, deadlines, at(time.Hour))
	}

	if ok, _ := q.Reschedule(id, at(3*time.Hour)); ok {
		t.Fatalf("Reschedule(fired timer) = true")
	}
}

// TestRescheduleEarlier moves a timer backward in time — the fresh queue
// entry lands below keys already seen — and checks it still fires.
func TestRescheduleEarlier(t *testing.T) {
	q := New[int]()
	id, _ := q.Schedule(at(time.Hour), 1)
	if ok, err := q.Reschedule(id, at(time.Millisecond)); !ok || err != nil {
		t.Fatalf("Reschedule earlier = %v, %v", ok, err)
	}
	n := q.Expire(at(time.Minute), func(TimerID, time.Time, int) {})
	if n != 1 {
		t.Fatalf("Expire fired %d, want 1", n)
	}
	// The stale (later) entry must not resurrect the timer.
	if n := q.Expire(at(2*time.Hour), func(TimerID, time.Time, int) {}); n != 0 {
		t.Fatalf("stale entry fired: %d", n)
	}
}

func TestDeadlineRangeRejected(t *testing.T) {
	q := New[int]()
	var rangeErr *klsm.TimeKeyRangeError
	tooEarly := time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := q.Schedule(tooEarly, 0); !errors.As(err, &rangeErr) {
		t.Fatalf("Schedule(out of window) err = %v, want *TimeKeyRangeError", err)
	}
	if q.Len() != 0 {
		t.Fatalf("rejected Schedule left Len = %d", q.Len())
	}
	id, _ := q.Schedule(at(0), 0)
	if _, err := q.Reschedule(id, tooEarly); !errors.As(err, &rangeErr) {
		t.Fatalf("Reschedule(out of window) err = %v, want *TimeKeyRangeError", err)
	}
	if dl, ok := q.Deadline(id); !ok || !dl.Equal(at(0)) {
		t.Fatalf("failed Reschedule moved deadline: %v %v", dl, ok)
	}
}

// TestCancelHeavyFootprintBounded drives the cancellation-pressure
// heuristic: schedule far-future timers and cancel most of them, in waves,
// and require the queue's physical footprint to stay within a constant
// factor of the live count instead of accumulating every tombstone.
func TestCancelHeavyFootprintBounded(t *testing.T) {
	const (
		waves    = 8
		perWave  = 20000
		cancelPc = 90 // cancel 90% of each wave
	)
	q := New[int](WithCompactionPressure(0.5, 1024))
	rng := rand.New(rand.NewSource(1))
	live := 0
	for w := 0; w < waves; w++ {
		ids := make([]TimerID, 0, perWave)
		for i := 0; i < perWave; i++ {
			id, err := q.Schedule(at(time.Duration(1+rng.Intn(1<<20))*time.Second), i)
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if rng.Intn(100) < cancelPc {
				if q.Cancel(id) {
					live--
				}
			}
		}
		live += perWave
	}
	if got := q.Len(); got != live {
		t.Fatalf("Len = %d, want %d", got, live)
	}
	st := q.Stats()
	if st.Compactions == 0 {
		t.Fatalf("pressure heuristic never compacted: %+v", st)
	}
	// One explicit compaction settles in-flight estimates, then the bound:
	// the total tombstones created vastly exceed any allowed slack, so this
	// fails if tombstones accumulate.
	q.Compact()
	fp := q.Footprint()
	limit := 4*live + 4096
	if fp > limit {
		t.Fatalf("Footprint %d exceeds %d (live %d): tombstones accumulating", fp, limit, live)
	}
	// Everything left must still fire exactly once.
	fired := 0
	q.Expire(at(1<<21*time.Second), func(TimerID, time.Time, int) { fired++ })
	if fired != live {
		t.Fatalf("fired %d, want %d", fired, live)
	}
}

// TestConcurrentExactlyOnce races schedulers, cancelers and expirers and
// asserts every timer either fires exactly once or is canceled exactly
// once — never both, never neither, never twice.
func TestConcurrentExactlyOnce(t *testing.T) {
	const (
		schedulers = 4
		perSched   = 3000
	)
	q := New[uint64](WithCompactionPressure(1.0, 512))
	var (
		firedCount [schedulers * perSched]atomic.Int32
		canceled   [schedulers * perSched]atomic.Bool
		idOf       [schedulers * perSched]TimerID
		scheduled  atomic.Int64
		done       atomic.Bool
	)
	var wg sync.WaitGroup

	for s := 0; s < schedulers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(s)))
			for i := 0; i < perSched; i++ {
				slot := s*perSched + i
				id, err := q.Schedule(at(time.Duration(rng.Intn(1000))*time.Microsecond), uint64(slot))
				if err != nil {
					t.Errorf("Schedule: %v", err)
					return
				}
				idOf[slot] = id
				scheduled.Add(1)
				// Cancel roughly half, sometimes after a reschedule.
				if rng.Intn(2) == 0 {
					if rng.Intn(4) == 0 {
						q.Reschedule(id, at(time.Duration(rng.Intn(2000))*time.Microsecond))
					}
					if q.Cancel(id) {
						canceled[slot].Store(true)
					}
				}
			}
		}(s)
	}

	// Expirers run concurrently with scheduling, firing whatever is due.
	var ewg sync.WaitGroup
	for e := 0; e < 3; e++ {
		ewg.Add(1)
		go func() {
			defer ewg.Done()
			for !done.Load() {
				q.Expire(at(2*time.Millisecond), func(_ TimerID, _ time.Time, slot uint64) {
					firedCount[slot].Add(1)
				})
			}
			// Final sweep after all scheduling settled.
			q.Expire(at(2*time.Millisecond), func(_ TimerID, _ time.Time, slot uint64) {
				firedCount[slot].Add(1)
			})
		}()
	}

	wg.Wait()
	done.Store(true)
	ewg.Wait()

	for slot := range firedCount {
		f := firedCount[slot].Load()
		c := canceled[slot].Load()
		switch {
		case f > 1:
			t.Fatalf("slot %d (timer %d) fired %d times", slot, idOf[slot], f)
		case f == 1 && c:
			t.Fatalf("slot %d (timer %d) both fired and canceled", slot, idOf[slot])
		case f == 0 && !c:
			t.Fatalf("slot %d (timer %d) neither fired nor canceled", slot, idOf[slot])
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after full drain", q.Len())
	}
}

// TestExpireConcurrentNoDuplicates hammers one due population with many
// concurrent expirers; the registry arbitration must hand each timer to
// exactly one of them.
func TestExpireConcurrentNoDuplicates(t *testing.T) {
	const n = 50000
	q := New[int]()
	for i := 0; i < n; i++ {
		if _, err := q.Schedule(at(time.Duration(i)*time.Microsecond), i); err != nil {
			t.Fatalf("Schedule: %v", err)
		}
	}
	var seen [n]atomic.Int32
	var total atomic.Int64
	var wg sync.WaitGroup
	for e := 0; e < 8; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fired := q.Expire(at(time.Hour), func(_ TimerID, _ time.Time, p int) {
				seen[p].Add(1)
			})
			total.Add(int64(fired))
		}()
	}
	wg.Wait()
	if total.Load() != n {
		t.Fatalf("total fired %d, want %d", total.Load(), n)
	}
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("timer %d fired %d times", i, c)
		}
	}
}

// TestDueScheduleRacesExpire races Schedule of timers already due, and
// Reschedule of far timers to due deadlines, against Expire. Each publishes
// its due entry while it still holds the timer's cell busy, so expirers
// draining meanwhile meet busy cells; fire must wait them out, because a
// fire that gave up would consume the timer's only live entry. Checked:
// every timer fires exactly once, with the deadline of its last successful
// Schedule or Reschedule.
func TestDueScheduleRacesExpire(t *testing.T) {
	const (
		schedulers = 2
		perSched   = 20000
		expirers   = 2
	)
	q := New[int]()
	var (
		ids     [schedulers * perSched]TimerID
		last    [schedulers * perSched]time.Time
		fired   [schedulers * perSched]atomic.Int32
		firedAt [schedulers * perSched]atomic.Int64
		done    atomic.Bool
	)
	now := at(time.Second)
	emit := func(_ TimerID, dl time.Time, i int) {
		fired[i].Add(1)
		firedAt[i].Store(dl.UnixNano())
	}
	var wg, ewg sync.WaitGroup
	for s := 0; s < schedulers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(400 + s)))
			for i := s * perSched; i < (s+1)*perSched; i++ {
				// Even timers are due at once; odd ones start an hour out
				// and are rescheduled to due.
				last[i] = at(time.Duration(rng.Intn(1000)) * time.Millisecond)
				if i%2 == 1 {
					last[i] = at(time.Hour)
				}
				id, err := q.Schedule(last[i], i)
				if err != nil {
					t.Errorf("Schedule: %v", err)
					return
				}
				ids[i] = id
				if i%2 == 1 {
					d := at(time.Duration(rng.Intn(1000)) * time.Millisecond)
					if ok, err := q.Reschedule(id, d); err != nil || !ok {
						t.Errorf("Reschedule of pending timer %d = %v, %v", i, ok, err)
						return
					}
					last[i] = d
				}
			}
		}(s)
	}
	for e := 0; e < expirers; e++ {
		ewg.Add(1)
		go func() {
			defer ewg.Done()
			for !done.Load() {
				q.Expire(now, emit)
			}
		}()
	}
	wg.Wait()
	done.Store(true)
	ewg.Wait()
	q.Expire(at(2*time.Hour), emit)
	for i := range ids {
		switch f := fired[i].Load(); {
		case f != 1:
			t.Fatalf("timer %d fired %d times, want 1", i, f)
		case firedAt[i].Load() != last[i].UnixNano():
			t.Fatalf("timer %d fired at %v, want its last deadline %v",
				i, time.Unix(0, firedAt[i].Load()).UTC(), last[i])
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after every timer fired", q.Len())
	}
}

func TestStatsAndDeadline(t *testing.T) {
	q := New[int]()
	id, _ := q.Schedule(at(time.Second), 1)
	if dl, ok := q.Deadline(id); !ok || !dl.Equal(at(time.Second)) {
		t.Fatalf("Deadline = %v, %v", dl, ok)
	}
	q.Schedule(at(2*time.Second), 2)
	id3, _ := q.Schedule(at(3*time.Second), 3)
	q.Cancel(id3)
	q.Reschedule(id, at(4*time.Second))
	q.Expire(at(2*time.Second), func(TimerID, time.Time, int) {})

	st := q.Stats()
	if st.Scheduled != 3 || st.Canceled != 1 || st.Rescheduled != 1 || st.Fired != 1 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.Pending != 1 {
		t.Fatalf("Pending = %d, want 1", st.Pending)
	}
	if _, ok := q.Deadline(id3); ok {
		t.Fatalf("Deadline(canceled) reported live")
	}
}

// TestStrictMode runs the basic flow at k = 0 (strict ordering) to confirm
// timer semantics are relaxation-independent.
func TestStrictMode(t *testing.T) {
	q := New[int](WithQueueOptions(klsm.WithRelaxation(0)))
	for i := 0; i < 1000; i++ {
		q.Schedule(at(time.Duration(i)*time.Millisecond), i)
	}
	fired := 0
	q.Expire(at(500*time.Millisecond), func(TimerID, time.Time, int) { fired++ })
	if fired != 501 {
		t.Fatalf("strict Expire fired %d, want 501", fired)
	}
}

// genAt is the cell generation of a timer's n-th queue entry (n from 1).
func genAt(n uint64) uint64 { return genFirst + (n-1)*genStep }

// TestLivenessCellContract pins the cells' Ref discipline. A timer has had
// one queue entry per generation 1..g; after any chain of Reschedules
// exactly one of them — the current generation's — is live in the queue,
// because each Reschedule deletes the entry it supersedes, and once the
// timer is canceled or fired none is. Without any Compact, the canceled and
// superseded entries stay physically queued but taken, so draining the raw
// queue returns each pending timer's current entry exactly once; a Compact
// then reclaims every entry left.
func TestLivenessCellContract(t *testing.T) {
	const n = 300
	q := New[int](WithCompactionPressure(0, 0))
	type timer struct {
		id   TimerID
		gens uint64 // entries issued: generations 1..gens
	}
	ts := make([]timer, n)
	for i := range ts {
		// Thirds: canceled, fired, still pending. Only the fired third ends
		// on a deadline before the Expire bound; every chain starts on one.
		id, err := q.Schedule(at(time.Duration(i)*time.Millisecond), i)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		ts[i] = timer{id: id, gens: 1}
		for r := 0; r < i%4; r++ {
			d := at(time.Hour + time.Duration(i*4+r)*time.Millisecond)
			if r%2 == 1 {
				d = at(time.Duration(i*4+r) * time.Millisecond)
			}
			if ok, err := q.Reschedule(id, d); !ok || err != nil {
				t.Fatalf("Reschedule = %v, %v", ok, err)
			}
			ts[i].gens++
		}
		final := at(2*time.Hour + time.Duration(i)*time.Millisecond)
		if i%3 == 1 {
			final = at(time.Duration(i) * time.Millisecond)
		}
		if ok, err := q.Reschedule(id, final); !ok || err != nil {
			t.Fatalf("Reschedule = %v, %v", ok, err)
		}
		ts[i].gens++
	}
	if got := q.q.Size(); got != n {
		t.Fatalf("queue holds %d live entries after the Reschedule chains, want one per timer (%d)", got, n)
	}

	for i, tm := range ts {
		if i%3 == 0 && !q.Cancel(tm.id) {
			t.Fatalf("Cancel(timer %d) = false", i)
		}
	}
	fired := 0
	q.Expire(at(time.Second), func(_ TimerID, _ time.Time, p int) {
		if p%3 != 1 {
			t.Errorf("timer %d fired, want only the i%%3 == 1 third", p)
		}
		fired++
	})
	if fired != n/3 {
		t.Fatalf("Expire fired %d, want %d", fired, n/3)
	}
	if got := q.q.Size(); got != n/3 {
		t.Fatalf("queue holds %d live entries, want one per pending timer (%d)", got, n/3)
	}
	if fp, l := q.Footprint(), q.Len(); fp <= l {
		t.Fatalf("Footprint %d <= Len %d: no taken entry left queued to test", fp, l)
	}
	index := make(map[TimerID]int, n)
	for i, tm := range ts {
		index[tm.id] = i
	}
	seen := map[TimerID]int{}
	for _, kv := range q.q.DrainMin(nil, 4*n) {
		tm := ts[index[kv.Value.id]]
		if kv.Value.id != tm.id || kv.Value.gen != genAt(tm.gens) {
			t.Fatalf("raw drain returned timer %d gen %d, want its current gen %d", tm.id, kv.Value.gen, genAt(tm.gens))
		}
		seen[tm.id]++
	}
	for i, tm := range ts {
		want := 0
		if i%3 == 2 {
			want = 1
		}
		if seen[tm.id] != want {
			t.Fatalf("raw drain returned timer %d %d times, want %d", i, seen[tm.id], want)
		}
	}
	// Every entry left is taken now; Compact reclaims them all.
	q.Compact()
	if fp := q.Footprint(); fp != 0 {
		t.Fatalf("after the drain and Compact: Footprint %d, want 0", fp)
	}
}

// TestDeadTimerReleasesPayload: a canceled timer's payload is collectable
// while its tombstone is still queued, and a fired timer's once emit has
// returned (a recycled queue item may still reach the fired timer's cell).
// Only pending timers keep their payloads reachable.
func TestDeadTimerReleasesPayload(t *testing.T) {
	const n = 96
	q := New[*[64]byte](WithCompactionPressure(0, 0))
	ids := make([]TimerID, n)
	payloads := make([]weak.Pointer[[64]byte], n)
	for i := range ids {
		// Thirds: canceled, fired, still pending.
		d := at(time.Hour)
		if i%3 == 1 {
			d = at(time.Duration(i) * time.Millisecond)
		}
		p := new([64]byte)
		payloads[i] = weak.Make(p)
		id, err := q.Schedule(d, p)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		ids[i] = id
	}
	for i := 0; i < n; i += 3 {
		if !q.Cancel(ids[i]) {
			t.Fatalf("Cancel(timer %d) = false", i)
		}
	}
	if fp, l := q.Footprint(), q.Len(); fp <= l {
		t.Fatalf("Footprint %d <= Len %d: no tombstone left queued to test", fp, l)
	}
	if fired := q.Expire(at(time.Second), func(TimerID, time.Time, *[64]byte) {}); fired != n/3 {
		t.Fatalf("Expire fired %d, want %d", fired, n/3)
	}
	runtime.GC()
	for i, w := range payloads {
		if live, want := w.Value() != nil, i%3 == 2; live != want {
			t.Errorf("timer %d (%s): payload reachable = %v, want %v",
				i, [...]string{"canceled", "fired", "pending"}[i%3], live, want)
		}
	}
	runtime.KeepAlive(q)
}

// TestPressureTracksPhysicalGarbage runs steady timer churn at the default
// options: each tick expires what is due, cancels as many timers as fire,
// and schedules twice that many, so half of all removals are
// cancellations. Merges and expiry reclaim the tombstones on their own, so
// the pressure heuristic, which reads the physical footprint, must leave
// the queue alone. An estimate that counted every cancellation but not the
// tombstones merges drop only ever grows, and compacted again and again.
func TestPressureTracksPhysicalGarbage(t *testing.T) {
	const (
		pending = 20000
		horizon = 200 // ticks a deadline lies ahead at most
		perTick = pending / horizon
		ticks   = 1000
	)
	q := New[int]()
	rng := rand.New(rand.NewSource(3))
	tick := func(k int) time.Time { return at(time.Duration(k) * time.Millisecond) }
	type cand struct {
		id   TimerID
		tick int
	}
	var pool []cand
	schedule := func(k int) {
		id, err := q.Schedule(tick(k), k)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		if len(pool) >= 4*pending {
			pool = append(pool[:0], pool[2*pending:]...)
		}
		pool = append(pool, cand{id, k})
	}
	for i := 0; i < pending; i++ {
		schedule(1 + rng.Intn(horizon))
	}
	for k := 1; k <= ticks; k++ {
		q.Expire(tick(k), func(TimerID, time.Time, int) {})
		for c := 0; c < perTick && len(pool) > 0; {
			j := rng.Intn(len(pool))
			p := pool[j]
			pool[j] = pool[len(pool)-1]
			pool = pool[:len(pool)-1]
			if p.tick > k+2 && q.Cancel(p.id) {
				c++
			}
		}
		for s := 0; s < 2*perTick; s++ {
			schedule(k + 1 + rng.Intn(horizon))
		}
		if fp, l := q.Footprint(), q.Len(); fp > 2*l {
			t.Fatalf("tick %d: Footprint %d > 2 × pending %d", k, fp, l)
		}
	}
	st := q.Stats()
	t.Logf("%+v", st)
	if st.Compactions > 1 {
		t.Fatalf("%d pressure compactions over %d ticks at footprint/pending %.2f, want at most 1",
			st.Compactions, ticks, float64(st.Footprint)/float64(st.Pending))
	}
}

// dirCensus counts the slabs and pages the registry's directory holds, and
// returns the size of its top-level index.
func dirCensus[P any](r *registry[P]) (slabs, pages []uint64, top int) {
	d := r.dir.Load()
	for i := range d.pages {
		p := d.pages[i].Load()
		if p == nil {
			continue
		}
		pages = append(pages, d.base+uint64(i))
		for j := range p.slabs {
			if p.slabs[j].Load() != nil {
				slabs = append(slabs, (d.base+uint64(i))<<pageBits+uint64(j))
			}
		}
	}
	return slabs, pages, len(d.pages)
}

// checkDirectory fails unless the directory holds at most the slab and the
// page the next ID lands in, and a top-level index no longer than
// maxTop pages.
func checkDirectory[P any](t *testing.T, r *registry[P], next uint64, maxTop int) {
	t.Helper()
	slabs, pages, top := dirCensus(r)
	if len(slabs) > 1 || len(slabs) == 1 && slabs[0] != next>>slabBits {
		t.Fatalf("directory holds slabs %v, want at most slab %d (next ID %d)", slabs, next>>slabBits, next)
	}
	if len(pages) > 1 || len(pages) == 1 && pages[0] != next>>pageShift {
		t.Fatalf("directory holds pages %v, want at most page %d (next ID %d)", pages, next>>pageShift, next)
	}
	if top > maxTop {
		t.Fatalf("top-level index spans %d pages, want at most %d: not trimmed (%d pages ever created)",
			top, maxTop, r.pages)
	}
}

// TestSlabsLeaveWithTheirTimers schedules timers in waves, each wave fired
// or canceled before the next, and checks that the directory lets go of
// every slab and page whose IDs are all issued and dead: what is left is at
// most the slab and page the next ID lands in.
func TestSlabsLeaveWithTheirTimers(t *testing.T) {
	const (
		waves   = 4
		perWave = 1 << 13
	)
	q := New[int](WithCompactionPressure(0, 0))
	rng := rand.New(rand.NewSource(5))
	ids := make([]TimerID, perWave)
	for w := 0; w < waves; w++ {
		for i := range ids {
			id, err := q.Schedule(at(time.Duration(w*perWave+rng.Intn(perWave))*time.Microsecond), i)
			if err != nil {
				t.Fatalf("Schedule: %v", err)
			}
			ids[i] = id
		}
		for _, id := range ids {
			switch rng.Intn(3) {
			case 0:
				q.Cancel(id)
			case 1:
				q.Reschedule(id, at(time.Duration(w*perWave+rng.Intn(perWave))*time.Microsecond))
			}
		}
		q.Expire(at(time.Duration((w+1)*perWave)*time.Microsecond), func(TimerID, time.Time, int) {})
		if q.Len() != 0 {
			t.Fatalf("wave %d: Len = %d after its expiry, want 0", w, q.Len())
		}
	}
	checkDirectory(t, &q.reg, q.nextID.Load()+1, 4*(perWave>>pageShift+1))
}

// TestDirectoryFollowsLiveSlabs runs 2²⁰ timers through the registry alone
// (the queue's insert is what would make this slow under -race), in waves,
// from four goroutines sharing one ID counter, so slab installs, page
// creation, top-level growth and removals race. Each timer is canceled, or
// fired, or rescheduled and then fired. Afterwards the directory holds at
// most the slab and page the next ID lands in, and a top-level index
// trimmed to a few waves' span rather than all 256 pages ever created.
func TestDirectoryFollowsLiveSlabs(t *testing.T) {
	const (
		waves   = 16
		perWave = 1 << 16
		workers = 4
	)
	var r registry[int]
	r.init()
	var next atomic.Uint64
	for w := 0; w < waves; w++ {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ids := make([]TimerID, perWave/workers)
				for i := range ids {
					ids[i] = TimerID(next.Add(1))
					// Released live as Schedule's enqueue does, minus the queue.
					r.add(ids[i], int64(i), i).gen[ids[i]%slabCells].Store(genFirst)
				}
				for i, id := range ids {
					gen := uint64(genFirst)
					switch i % 3 {
					case 0:
						if _, ok := r.cancel(id); !ok {
							t.Errorf("cancel(%d) = false", id)
						}
						continue
					case 1:
						// Reschedule's busy window, minus the queue.
						s, g := r.claim(id, true)
						s.deadline[id%slabCells].Store(int64(-i))
						gen = g + genStep
						s.gen[id%slabCells].Store(gen)
					}
					if p, ok := r.fire(tref{id: id, gen: gen}); !ok || p != i {
						t.Errorf("fire(%d, gen %d) = %d, %v; want %d, true", id, gen, p, ok, i)
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	checkDirectory(t, &r, next.Load()+1, 4*(perWave>>pageShift+1))
}

// busyWait is how long the busy-window tests give a registry call to return
// early: a call that does not wait out a busy cell returns at once.
const busyWait = 20 * time.Millisecond

// TestCancelWaitsOutBusyCell: cancel meets the cell add left busy, as a
// Cancel does while the Schedule that issued the ID is still enqueueing the
// timer. It must not return until Schedule stores the entry's Ref and
// releases the cell, and then it returns that Ref, the one entry there is
// to delete.
func TestCancelWaitsOutBusyCell(t *testing.T) {
	var r registry[int]
	r.init()
	const id = TimerID(1)
	s := r.add(id, 10, 7)
	type result struct {
		ref klsm.Ref[tref]
		ok  bool
	}
	started, done := make(chan struct{}), make(chan result, 1)
	go func() {
		close(started)
		ref, ok := r.cancel(id)
		done <- result{ref, ok}
	}()
	<-started
	select {
	case res := <-done:
		t.Fatalf("cancel returned (ok %v) while add held the cell busy", res.ok)
	case <-time.After(busyWait):
	}
	// Schedule's enqueue, with a Ref from a queue of its own.
	ref := klsm.New[tref]().NewHandle().InsertRef(10, tref{id: id, gen: genFirst})
	s.ref[id%slabCells] = ref
	s.gen[id%slabCells].Store(genFirst)
	if res := <-done; !res.ok || res.ref != ref {
		t.Fatalf("cancel = %v, %v; want the Ref stored before the release, true", res.ref, res.ok)
	}
}

// TestDeadlineWaitsOutBusyCell: lookup meets a cell Reschedule holds busy,
// between its claim and the release of the next generation. The cell is
// already claimed for that generation, so lookup must not pair it with the
// old deadline: it waits, and reports the deadline stored for the new
// generation.
func TestDeadlineWaitsOutBusyCell(t *testing.T) {
	var r registry[int]
	r.init()
	const id = TimerID(1)
	r.add(id, 10, 7).gen[id%slabCells].Store(genFirst)
	for dl := int64(11); dl <= 14; dl++ {
		s, g := r.claim(id, true)
		started, done := make(chan struct{}), make(chan int64, 1)
		go func() {
			close(started)
			d, ok := r.lookup(id)
			if !ok {
				d = -1
			}
			done <- d
		}()
		<-started
		select {
		case d := <-done:
			t.Fatalf("lookup returned %d while Reschedule held the cell busy", d)
		case <-time.After(busyWait):
		}
		// Reschedule's busy window, minus the queue.
		s.deadline[id%slabCells].Store(dl)
		s.gen[id%slabCells].Store(g + genStep)
		if d := <-done; d != dl {
			t.Fatalf("lookup across the claim of generation %d = %d, want its deadline %d", g+genStep, d, dl)
		}
	}
}

// TestUnissuedIDs: Cancel, Reschedule and Deadline of IDs never issued —
// the zero TimerID, the next one, and one far beyond the directory — report
// false and allocate nothing, whether or not the ID's slab exists.
func TestUnissuedIDs(t *testing.T) {
	q := New[int]()
	for i := 0; i < 100; i++ {
		q.Schedule(at(time.Hour), i)
	}
	last := TimerID(q.nextID.Load())
	for _, id := range []TimerID{0, last + 1, 1 << 63} {
		allocs := testing.AllocsPerRun(100, func() {
			if q.Cancel(id) {
				t.Fatalf("Cancel(%d) = true for an ID never issued", id)
			}
			if ok, err := q.Reschedule(id, at(time.Minute)); ok || err != nil {
				t.Fatalf("Reschedule(%d) = %v, %v for an ID never issued", id, ok, err)
			}
			if _, ok := q.Deadline(id); ok {
				t.Fatalf("Deadline(%d) ok for an ID never issued", id)
			}
		})
		if allocs != 0 {
			t.Fatalf("ID %d: %v allocations per Cancel+Reschedule+Deadline, want 0", id, allocs)
		}
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d, want 100", q.Len())
	}
}

// TestCASArbitration races Reschedule, Cancel, Deadline and Expire over one
// shared set of timers, on the cells where the CAS arbitration can break.
// The goroutines hammer a window of hot timers at a time, and the window
// moves on once all of its timers are dead. Each timer has one rescheduler,
// which keeps making it due again, so the deadline of its last successful
// Schedule or Reschedule is well defined; expirers, advancing a virtual
// clock one tick per Expire, try to fire it, and cancelers try to cancel
// the even-numbered half. Every deadline a timer is given carries, in its
// nanoseconds, how many Reschedules of it had begun; after maxMoves the
// rescheduler leaves a timer to the others. Checked:
//   - every timer ends fired exactly once or canceled, never both;
//   - a timer fires with the deadline of its last successful Schedule or
//     Reschedule;
//   - Deadline reports a deadline the timer was given, never goes back to an
//     earlier one, and never reports a dead timer live again;
//   - after quiescence, Deadline of each pending timer equals the key of its
//     one kept queue entry.
func TestCASArbitration(t *testing.T) {
	const (
		n            = 2560
		hot          = 4   // timers in the window
		windows      = 512 // windows hammered; the timers past them stay pending
		cancelOdds   = 4   // a canceler tries one pick in cancelOdds
		stuck        = 10 * time.Second
		far          = 1 << 30
		maxMoves     = 64 // Reschedules per timer at most
		reschedulers = 2
		cancelers    = 2
		readers      = 2
		expirers     = 2
	)
	q := New[int](WithCompactionPressure(1.0, 256))
	var (
		ids      [n]TimerID
		begun    [n]atomic.Int64 // Reschedules of timer i begun
		last     [n]time.Time    // deadline of its last successful Schedule/Reschedule
		fired    [n]atomic.Int32
		firedAt  [n]atomic.Int64
		canceled [n]atomic.Bool
		clock    atomic.Int64 // ms
		window   atomic.Int64
	)
	seqOf := func(d time.Time) int64 { return int64(d.Sub(base) % time.Millisecond) }
	deadline := func(ms, seq int64) time.Time {
		return at(time.Duration(ms)*time.Millisecond + time.Duration(seq))
	}
	for i := range ids {
		last[i] = deadline(far+int64(i), 0)
		id, err := q.Schedule(last[i], i)
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		ids[i] = id
	}
	emit := func(_ TimerID, dl time.Time, i int) {
		fired[i].Add(1)
		firedAt[i].Store(dl.UnixNano())
	}
	// pick returns a timer i ≡ k (mod m) of the current window, or -1 once
	// the last window is done.
	pick := func(rng *rand.Rand, k, m int) int {
		w := int(window.Load())
		if w >= windows {
			return -1
		}
		return w*hot + k + m*rng.Intn(hot/m)
	}
	// advance moves the window on once all of its timers are dead. A
	// window whose timers can neither fire nor be canceled fails the test.
	var movedAt atomic.Int64
	movedAt.Store(time.Now().UnixNano())
	advance := func() {
		w := window.Load()
		for i := w * hot; i < (w+1)*hot && w < windows; i++ {
			if fired[i].Load() == 0 && !canceled[i].Load() {
				if time.Since(time.Unix(0, movedAt.Load())) > stuck && window.CompareAndSwap(w, windows) {
					t.Errorf("window %d stuck for %v: timer %d neither fired nor canceled", w, stuck, i)
				}
				return
			}
		}
		if window.CompareAndSwap(w, w+1) {
			movedAt.Store(time.Now().UnixNano())
		}
	}

	var wg sync.WaitGroup
	for r := 0; r < reschedulers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for i := pick(rng, r, reschedulers); i >= 0; i = pick(rng, r, reschedulers) {
				if begun[i].Load() >= maxMoves {
					runtime.Gosched()
					continue
				}
				d := deadline(max(clock.Load()-rng.Int63n(2), 0), begun[i].Add(1))
				ok, err := q.Reschedule(ids[i], d)
				if err != nil {
					t.Errorf("Reschedule: %v", err)
					return
				}
				if ok {
					last[i] = d
				}
			}
		}(r)
	}
	for c := 0; c < cancelers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + c)))
			for i := pick(rng, 0, 2); i >= 0; i = pick(rng, 0, 2) {
				if rng.Intn(cancelOdds) != 0 {
					runtime.Gosched()
				} else if q.Cancel(ids[i]) {
					canceled[i].Store(true)
				}
			}
		}(c)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + r)))
			seen := make([]int64, n) // last seq read per timer, -1 once dead
			for i := pick(rng, 0, 1); i >= 0; i = pick(rng, 0, 1) {
				d, ok := q.Deadline(ids[i])
				switch {
				case !ok:
					seen[i] = -1
				case seen[i] < 0:
					t.Errorf("timer %d: Deadline live again after it reported dead", i)
					return
				case seqOf(d) < seen[i] || seqOf(d) > begun[i].Load():
					t.Errorf("timer %d: Deadline %v carries Reschedule %d; seen %d, begun %d",
						i, d, seqOf(d), seen[i], begun[i].Load())
					return
				default:
					seen[i] = seqOf(d)
				}
				advance()
				runtime.Gosched()
			}
		}(r)
	}
	for e := 0; e < expirers; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for window.Load() < windows && !t.Failed() {
				q.Expire(deadline(clock.Add(1), 0), emit)
				advance()
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if clock.Load() >= far {
		t.Fatalf("clock reached %d ms, past the pending timers' deadlines", clock.Load())
	}

	pending := 0
	for i := range ids {
		if fired[i].Load() == 0 && !canceled[i].Load() {
			pending++
			if d, ok := q.Deadline(ids[i]); !ok || !d.Equal(last[i]) {
				t.Fatalf("pending timer %d: Deadline = %v, %v; want its last deadline %v", i, d, ok, last[i])
			}
		}
	}
	if q.Len() != pending {
		t.Fatalf("Len = %d, want %d pending", q.Len(), pending)
	}
	// Quiescent: exactly one entry per pending timer is live, keyed by its
	// deadline. Drain the raw queue to check, then put it back.
	q.Compact()
	index := make(map[TimerID]int, n)
	for i, id := range ids {
		index[id] = i
	}
	kept := q.q.DrainMin(nil, 4*n)
	seen := make(map[TimerID]bool, len(kept))
	for _, kv := range kept {
		i, ok := index[kv.Value.id]
		switch {
		case !ok:
			t.Fatalf("raw drain returned unknown timer %d", kv.Value.id)
		case fired[i].Load() != 0 || canceled[i].Load():
			t.Fatalf("raw drain returned an entry of dead timer %d", i)
		case seen[kv.Value.id]:
			t.Fatalf("raw drain returned two entries of timer %d", i)
		case !kv.Key.Equal(last[i]):
			t.Fatalf("timer %d: kept entry keyed %v, Deadline %v", i, kv.Key, last[i])
		}
		seen[kv.Value.id] = true
		q.q.Insert(kv.Key, kv.Value)
	}
	if len(kept) != pending {
		t.Fatalf("raw drain returned %d entries, want one per pending timer (%d)", len(kept), pending)
	}

	q.Expire(deadline(far+n, 0), emit)
	firedN, canceledN := 0, 0
	for i := range ids {
		f, c := fired[i].Load(), canceled[i].Load()
		switch {
		case f > 1:
			t.Fatalf("timer %d fired %d times", i, f)
		case f == 1 && c:
			t.Fatalf("timer %d both fired and canceled", i)
		case f == 0 && !c:
			t.Fatalf("timer %d neither fired nor canceled", i)
		case f == 1 && firedAt[i].Load() != last[i].UnixNano():
			t.Fatalf("timer %d fired at %v, want its last deadline %v",
				i, time.Unix(0, firedAt[i].Load()).UTC(), last[i])
		}
		if f == 1 {
			firedN++
		} else {
			canceledN++
		}
	}
	t.Logf("%d timers: %d fired, %d canceled, %d pending at quiescence, %d Reschedules",
		n, firedN, canceledN, pending, q.Stats().Rescheduled)
}
