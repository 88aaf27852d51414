package timerq

import (
	"sync"
	"sync/atomic"
)

// TimerID identifies one scheduled timer for the lifetime of its Queue.
// IDs are allocated densely from 1 and never reused; the zero TimerID is
// never issued, so it can serve as a "no timer" sentinel in caller state.
type TimerID uint64

// shardCount is the ID-index shard count (power of two; IDs are dense, so
// id&mask spreads adjacent timers across shards). The index is consulted
// only by Schedule, Cancel, Reschedule, Deadline and a successful fire —
// never by the merge filter, which reads the liveness cell directly — so 64
// shards keep its mutexes uncontended for any realistic
// expirer/scheduler concurrency.
const shardCount = 64

// record is a timer's liveness cell: the source of truth for "this timer is
// live", shared by the ID index and every queue entry the timer ever had.
// gen is the generation of the timer's one current queue entry, or 0 once
// the timer is dead (canceled or fired); Reschedule advances it, so every
// older entry self-identifies as garbage. gen, deadline and payload change
// only under the shard lock of id; the merge filter reads gen lock-free. The
// payload lives only here, never in the queue, so the queue entries stay two
// words regardless of P; the path that kills the timer clears it, so a
// tombstone still queued does not keep a canceled timer's payload alive.
type record[P any] struct {
	gen      atomic.Uint64
	id       TimerID
	deadline int64 // UnixNano
	payload  P
}

// tref is the queue payload: the timer's cell plus the generation the entry
// was enqueued under.
type tref[P any] struct {
	rec *record[P]
	gen uint64
}

// dead reports whether the entry is garbage: its timer was canceled, fired,
// or rescheduled past it. One atomic load; the merge filter (Queue.drop)
// runs it once a Cancel or Reschedule could have left a tombstone.
func (r tref[P]) dead() bool { return r.rec.gen.Load() != r.gen }

// shard is one mutex-guarded slice of the ID index.
type shard[P any] struct {
	mu sync.Mutex
	m  map[TimerID]*record[P]
}

// registry is the sharded ID index over the live timers' cells. Schedule
// adds a cell (live at generation 1) before the queue insert, so the merge
// filter can never drop a live-but-unqueued entry. Cancel and a successful
// fire remove the cell from the index and store 0 into it; Reschedule
// advances its generation. Each of those happens under the shard lock,
// which makes the lock the exactly-once arbitration point between expiry,
// cancellation and reschedule: whichever changes the cell first wins, every
// other path sees a mismatch.
type registry[P any] struct {
	shards [shardCount]shard[P]
	// live counts registered timers (adds minus removes), read lock-free
	// by Len and the compaction-pressure heuristic.
	live atomic.Int64
}

func (r *registry[P]) shardOf(id TimerID) *shard[P] {
	return &r.shards[uint64(id)&(shardCount-1)]
}

// add registers a fresh timer and returns its cell, live at generation 1.
// The id is fresh (never reused), so no collision check is needed.
func (r *registry[P]) add(id TimerID, deadline int64, payload P) *record[P] {
	rec := &record[P]{id: id, deadline: deadline, payload: payload}
	rec.gen.Store(1)
	s := r.shardOf(id)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[TimerID]*record[P])
	}
	s.m[id] = rec
	s.mu.Unlock()
	r.live.Add(1)
	return rec
}

// cancel kills the timer if it is live, reporting whether it was. This is
// the entire cancellation fast path: the queue entry becomes a tombstone
// the expiry check skips and the merge filter eventually reclaims.
func (r *registry[P]) cancel(id TimerID) bool {
	s := r.shardOf(id)
	s.mu.Lock()
	rec, ok := s.m[id]
	if ok {
		delete(s.m, id)
		rec.gen.Store(0)
		var zero P
		rec.payload = zero
	}
	s.mu.Unlock()
	if ok {
		r.live.Add(-1)
	}
	return ok
}

// fire kills the timer iff gen is its current generation, returning its
// payload: the drained entry is the timer's live one, and expiry won.
func (r *registry[P]) fire(rec *record[P], gen uint64) (payload P, ok bool) {
	s := r.shardOf(rec.id)
	s.mu.Lock()
	if rec.gen.Load() != gen {
		s.mu.Unlock()
		var zero P
		return zero, false
	}
	delete(s.m, rec.id)
	rec.gen.Store(0)
	payload = rec.payload
	var zero P
	rec.payload = zero
	s.mu.Unlock()
	r.live.Add(-1)
	return payload, true
}

// bump advances a live timer's generation and deadline for Reschedule,
// returning its cell and the new generation. The old queue entry — still
// carrying the previous generation — is garbage from this moment on.
func (r *registry[P]) bump(id TimerID, deadline int64) (rec *record[P], gen uint64, ok bool) {
	s := r.shardOf(id)
	s.mu.Lock()
	rec, ok = s.m[id]
	if ok {
		gen = rec.gen.Load() + 1
		rec.deadline = deadline
		rec.gen.Store(gen)
	}
	s.mu.Unlock()
	return rec, gen, ok
}

// lookup returns a live timer's deadline for introspection.
func (r *registry[P]) lookup(id TimerID) (deadline int64, ok bool) {
	s := r.shardOf(id)
	s.mu.Lock()
	rec, ok := s.m[id]
	if ok {
		deadline = rec.deadline
	}
	s.mu.Unlock()
	return deadline, ok
}
