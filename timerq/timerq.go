// Package timerq is a deadline manager for millions of timers over the
// k-LSM relaxed priority queue, with first-class cancellation.
//
// Timers are (deadline, payload) pairs identified by a TimerID. Schedule
// inserts, Cancel is an O(1) update of the timer's liveness cell plus one
// CAS that deletes its queue entry in place, and a tick-driven Expire
// batch-drains every timer due by "now" through the queue's bounded drain.
// Relaxation is a feature here, not a compromise: firing a timer up to
// ρ = T·k ranks early within one tick is invisible at tick granularity, and
// the relaxed queue's throughput headroom is exactly what a timeout manager
// for millions of connections needs (see DESIGN.md "Timer subsystem" for
// the safety argument, and cmd/timerbench for the measured comparison
// against a hierarchical timing wheel and against the strict k=0
// configuration).
//
// Cancellation works in three layers:
//
//  1. Every timer is a cell holding its current generation (0 once dead),
//     deadline, payload and the klsm.Ref of its current queue entry. Cells
//     sit in slabs of 16 found from the dense TimerID through a two-level
//     directory, so a queue entry is just the pointer-free pair (ID,
//     generation it was enqueued under). Cancel CASes the cell's generation
//     to 0 and clears its payload. A slab leaves the directory once all of
//     its IDs are dead.
//  2. Expiry arbitrates by CAS: a drained entry fires only if it swings its
//     cell from the entry's generation to 0, so fire, cancel and reschedule
//     each win or lose atomically, exactly once, with no lock.
//  3. The entry a Cancel or Reschedule kills is deleted by reference
//     (klsm.Queue.Delete): one version-stamped CAS marks it taken. It stays
//     in its block as a tombstone until a merge, pop or compaction skips
//     it like any popped item, with no per-entry filter. A
//     cancellation-pressure heuristic triggers a full Compact when the
//     physical footprint outgrows the live count, so the structure stays
//     bounded even under adversarial cancel-heavy load that never naturally
//     merges the affected blocks.
package timerq

import (
	"sync"
	"sync/atomic"
	"time"

	"klsm"
)

// pressureEvery is how many Cancel (or Reschedule) calls pass between two
// compaction-pressure checks; Expire checks once per call. Each call adds
// at most one tombstone, so the check lags the trigger by at most this many
// entries, while the block walk behind Footprint stays off the per-call
// path.
const pressureEvery = 1024

// expireBatch is the per-round drain size of Expire: large enough to
// amortize the drain's window refills (it exceeds the default deletion
// buffer several times over), small enough to keep emit latency and the
// per-round buffer allocation modest.
const expireBatch = 256

// config collects the Option-settable knobs.
type config struct {
	queueOpts []klsm.Option
	// pressure is the garbage/live ratio beyond which a Compact triggers.
	pressure float64
	// minGarbage floors the trigger: below this many garbage entries,
	// compaction never runs (it would reclaim too little to pay for the
	// pass).
	minGarbage int64
}

// Option configures New.
type Option func(*config)

// WithQueueOptions passes options through to the underlying klsm queue:
// relaxation (klsm.WithRelaxation), mode, and every other klsm.Option.
// The default is klsm's default configuration (combined k-LSM, k = 256).
func WithQueueOptions(opts ...klsm.Option) Option {
	return func(c *config) { c.queueOpts = append(c.queueOpts, opts...) }
}

// WithCompactionPressure tunes the cancellation-pressure heuristic: a
// compaction pass triggers once the garbage entries still physically in the
// queue (Footprint − Len) exceed both ratio × (live timers) and min. The
// defaults (ratio 1.0, min 4096) compact when garbage outweighs live
// content; a ratio <= 0 disables ratio-based triggering entirely
// (compaction then only runs via explicit Compact calls).
func WithCompactionPressure(ratio float64, min int) Option {
	return func(c *config) {
		c.pressure = ratio
		c.minGarbage = int64(min)
	}
}

// Queue is the timer subsystem: a deadline-keyed relaxed priority queue
// plus the per-timer liveness cells that make cancellation O(1). All
// methods are safe for concurrent use by any number of goroutines.
type Queue[P any] struct {
	q *klsm.OrderedQueue[time.Time, tref]

	// reg's directory pointer is read by every timer operation and rarely
	// written (its mutex is taken once per 16 IDs). The padding keeps it
	// off the cache lines the per-operation counters below are written on:
	// a line another CPU keeps writing costs a cache miss per read.
	_   [64]byte
	reg registry[P]
	_   [64]byte

	// nextID is the last TimerID issued, which is also the count of
	// successful Schedule calls.
	nextID atomic.Uint64
	// compacting serializes pressure-triggered compactions (a second
	// trigger while one runs is dropped, not queued).
	compacting atomic.Bool
	// expireMu serializes Expire's drain loop. Concurrent expirers remain
	// correct without it (the cells arbitrate exactly-once), but they
	// duplicate work at the queue layer: each one's bounded drain spies
	// the same due blocks out of idle handles' local structures, tripling
	// copies that then die as garbage. One expirer at a time keeps the
	// drain's structural work linear in the due population; Schedule,
	// Cancel and Reschedule never touch this lock.
	expireMu sync.Mutex

	canceled    atomic.Int64
	fired       atomic.Int64
	rescheduled atomic.Int64
	compactions atomic.Int64

	pressure   float64
	minGarbage int64
}

// New returns an empty timer queue for payloads of type P.
func New[P any](opts ...Option) *Queue[P] {
	cfg := config{pressure: 1.0, minGarbage: 4096}
	for _, o := range opts {
		o(&cfg)
	}
	tq := &Queue[P]{
		pressure:   cfg.pressure,
		minGarbage: cfg.minGarbage,
	}
	tq.reg.init()
	tq.q = klsm.NewOrdered[time.Time, tref](klsm.TimeKey(), cfg.queueOpts...)
	return tq
}

// Schedule registers a timer firing at deadline and returns its ID. The
// deadline must be inside TimeKey's representable window; outside it a
// *klsm.TimeKeyRangeError is returned and nothing is scheduled (a silently
// clamped deadline could fire ~300 years off). Deadlines in the past are
// valid and fire on the next Expire.
func (q *Queue[P]) Schedule(deadline time.Time, payload P) (TimerID, error) {
	if err := klsm.CheckTimeKey(deadline); err != nil {
		return 0, err
	}
	id := TimerID(q.nextID.Add(1))
	q.enqueue(q.reg.add(id, deadline.UnixNano(), payload), id, genFirst, deadline)
	return id, nil
}

// enqueue inserts the entry of generation gen for id's busy cell, stores
// its Ref, and releases the cell live at gen. Expire may drain the entry
// before the release; fire waits the release out.
func (q *Queue[P]) enqueue(s *slab[P], id TimerID, gen uint64, deadline time.Time) {
	s.ref[id%slabCells] = q.q.InsertRef(deadline, tref{id: id, gen: gen})
	s.gen[id%slabCells].Store(gen)
}

// Cancel deregisters the timer, reporting whether it was still pending
// (false: already fired, already canceled, or never scheduled). O(1) and
// lock-free: the timer's cell is killed by one CAS, and its queue entry is
// deleted in place by another, so expiry and merges skip it.
// Cancellation wins or loses against a concurrent Expire atomically — the
// payload is delivered exactly once or not at all, never both.
func (q *Queue[P]) Cancel(id TimerID) bool {
	ref, ok := q.reg.cancel(id)
	if !ok {
		return false
	}
	q.q.Delete(ref)
	if q.canceled.Add(1)%pressureEvery == 0 {
		q.maybeCompact()
	}
	return true
}

// Reschedule moves a pending timer to a new deadline, reporting whether it
// was still pending. The deadline window rule matches Schedule. Internally
// the timer's generation advances, a fresh queue entry is inserted and the
// superseded one is deleted. The cell is held busy from the claim until
// the new entry's Ref is stored, so Deadline never pairs the new generation
// with the old deadline. A timer that fires concurrently with its
// Reschedule does one or the other — fires at the old deadline or moves —
// never both.
func (q *Queue[P]) Reschedule(id TimerID, deadline time.Time) (bool, error) {
	if err := klsm.CheckTimeKey(deadline); err != nil {
		return false, err
	}
	s, g := q.reg.claim(id, true)
	if g == 0 {
		return false, nil
	}
	old := s.ref[id%slabCells]
	s.deadline[id%slabCells].Store(deadline.UnixNano())
	q.enqueue(s, id, g+genStep, deadline)
	q.q.Delete(old)
	if q.rescheduled.Add(1)%pressureEvery == 0 {
		q.maybeCompact()
	}
	return true, nil
}

// Expire fires every timer due at or before now: due entries are
// batch-drained from the queue (bounded drain — entries past now are never
// touched), arbitrated against their timers' cells, and emit is invoked
// once per surviving timer with its ID, deadline and payload. It returns
// the number fired. Within one Expire call the emit order is the queue's
// relaxed pop order — deadline order up to ρ = T·k ranks — which is
// invisible at tick granularity (every emitted timer is genuinely due).
// Multiple goroutines may call Expire concurrently; each due timer fires
// exactly once, on one of them. A return of 0 is a strong signal: no
// reachable timer was due at the drain's bound, including timers stranded
// in idle handles' local structures (the queue's due-bounded spy pass
// covers them).
func (q *Queue[P]) Expire(now time.Time, emit func(id TimerID, deadline time.Time, payload P)) int {
	q.expireMu.Lock()
	defer q.expireMu.Unlock()
	fired := 0
	buf := make([]klsm.KV[time.Time, tref], 0, expireBatch)
	for {
		buf = q.q.DrainMinBounded(buf[:0], expireBatch, now)
		for _, kv := range buf {
			payload, ok := q.reg.fire(kv.Value)
			if !ok {
				continue // canceled or superseded, and drained before its Delete
			}
			q.fired.Add(1)
			fired++
			emit(kv.Value.id, kv.Key, payload)
		}
		if len(buf) < expireBatch {
			break
		}
	}
	q.maybeCompact()
	return fired
}

// Deadline returns a pending timer's current deadline (UTC), with ok false
// when the timer is no longer pending.
func (q *Queue[P]) Deadline(id TimerID) (deadline time.Time, ok bool) {
	ns, ok := q.reg.lookup(id)
	if !ok {
		return time.Time{}, false
	}
	return time.Unix(0, ns).UTC(), true
}

// Len returns the number of pending timers — exactly once operations
// quiesce, and never negative — not the queue's entry count, which
// additionally holds unreclaimed tombstones (see Footprint). IDs are issued
// densely to successful Schedules only, so it is IDs issued minus timers
// fired or canceled; the deaths are read first, so every ID they count is
// issued by the time nextID is read.
func (q *Queue[P]) Len() int {
	return int(-q.fired.Load() - q.canceled.Load() + int64(q.nextID.Load()))
}

// Footprint returns the physical entry count of the underlying queue's
// published blocks: pending timers plus tombstones not yet reclaimed. A
// Footprint that stays within a small factor of Len across ticks is the
// signal that lazy cancellation is keeping up; cmd/timerbench records it.
func (q *Queue[P]) Footprint() int { return q.q.Footprint() }

// Compact synchronously purges tombstoned entries from the whole queue
// structure (see klsm.Queue.Compact). The pressure heuristic calls this
// automatically; it is exported for callers that want deterministic
// compaction points (between ticks, say).
func (q *Queue[P]) Compact() {
	q.q.Compact()
	q.compactions.Add(1)
}

// garbage returns the entries physically in the queue beyond the pending
// timers — tombstones plus fired entries not yet trimmed — given a
// Footprint and Len read together.
func garbage(footprint, pending int) int64 {
	return max(int64(footprint)-int64(pending), 0)
}

// maybeCompact runs Compact when the garbage still physically in the queue
// exceeds both the configured floor and ratio × live — at most one
// compaction at a time, extra triggers dropped. Reading the physical state
// means merges that reclaim tombstones on their own lower the trigger's
// input too, so compaction runs only when they fall behind.
func (q *Queue[P]) maybeCompact() {
	if q.pressure <= 0 {
		return
	}
	live := q.Len()
	g := garbage(q.Footprint(), live)
	if g < q.minGarbage || float64(g) < q.pressure*float64(live) {
		return
	}
	if !q.compacting.CompareAndSwap(false, true) {
		return
	}
	defer q.compacting.Store(false)
	q.Compact()
}

// Stats is a snapshot of the queue's operation counters.
type Stats struct {
	// Scheduled, Canceled, Rescheduled, Fired count successful operations
	// since New.
	Scheduled, Canceled, Rescheduled, Fired int64
	// Compactions counts completed Compact passes (explicit and
	// pressure-triggered).
	Compactions int64
	// GarbageEstimate is Footprint − Pending (floored at 0): the entries
	// physically in the queue that no pending timer owns, the input of the
	// pressure heuristic.
	GarbageEstimate int64
	// Pending and Footprint mirror Len and Footprint at snapshot time.
	Pending, Footprint int
	// Engine is the underlying queue's structural counters (merges,
	// overflows, spies, window and buffer work; see klsm.Stats).
	Engine klsm.Stats
}

// Stats returns a racy snapshot of the operation counters.
func (q *Queue[P]) Stats() Stats {
	pending, footprint := q.Len(), q.Footprint()
	return Stats{
		Scheduled:       int64(q.nextID.Load()),
		Canceled:        q.canceled.Load(),
		Rescheduled:     q.rescheduled.Load(),
		Fired:           q.fired.Load(),
		Compactions:     q.compactions.Load(),
		GarbageEstimate: garbage(footprint, pending),
		Pending:         pending,
		Footprint:       footprint,
		Engine:          q.q.Stats(),
	}
}
