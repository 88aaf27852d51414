package timerq

import (
	"runtime"
	"sync"
	"sync/atomic"

	"klsm"
)

// TimerID identifies one scheduled timer for the lifetime of its Queue.
// IDs are allocated densely from 1 and never reused; the zero TimerID is
// never issued, so it can serve as a "no timer" sentinel in caller state.
type TimerID uint64

// Timer cells live in slabs of slabCells consecutive IDs: slab id>>slabBits,
// cell id%slabCells. A directory page holds pageSlabs slab pointers, so page
// id>>pageShift covers 4096 IDs.
const (
	slabBits  = 4
	slabCells = 1 << slabBits
	pageBits  = 8
	pageSlabs = 1 << pageBits
	pageShift = slabBits + pageBits
)

// A cell's gen is the generation of its timer's one current queue entry, or
// 0 once the timer is dead (canceled or fired). Live generations are even:
// genFirst, then genStep more per Reschedule. genBusy marks a cell a
// Schedule or Reschedule owns while it stores the deadline, inserts the new
// entry and stores its Ref; every other path waits it out or loses to it.
const (
	genBusy  = 1
	genFirst = 2
	genStep  = 2
)

// tref is the queue payload: the timer's ID plus the generation the entry
// was enqueued under. It holds no pointer, so the GC never scans the
// engine's item slabs for it.
type tref struct {
	id  TimerID
	gen uint64
}

// slab holds the cells of slabCells consecutive IDs. A cell is the timer:
// its atomic gen arbitrates every state change by CAS against a captured
// generation (the paper's §4.4 claim protocol), its deadline serves
// Deadline, and its payload lives here only, never in the queue, so queue
// entries stay two words regardless of P. ref names the current entry in
// the queue, for the Cancel or Reschedule that deletes it. payload and ref
// are plain fields, read and written only by the cell's owner of the
// moment: the busy Schedule or Reschedule, or the path whose CAS killed the
// timer, which clears both.
type slab[P any] struct {
	gen      [slabCells]atomic.Uint64
	deadline [slabCells]atomic.Int64 // UnixNano
	payload  [slabCells]P
	ref      [slabCells]klsm.Ref[tref]
	// dead counts the cells whose timer died; at slabCells the slab leaves
	// its page. ID 0, never issued, counts as dead from the start.
	dead atomic.Int32
}

// page is one directory page: the slabs of 4096 consecutive IDs, nil once
// removed (or, above the newest issued ID, not yet created).
type page[P any] struct {
	slabs [pageSlabs]atomic.Pointer[slab[P]]
	// gone counts removed slabs; at pageSlabs the page leaves the index.
	gone atomic.Int32
}

// directory is the top-level index: pages[i] is page base+i.
type directory[P any] struct {
	base  uint64
	pages []atomic.Pointer[page[P]]
}

// registry finds a timer's cell from its dense ID through a two-level
// directory. Lookups take no lock and allocate nothing; only the first
// Schedule into a slab (one allocation per 16 timers) takes mu. A slab
// leaves the directory once all of its IDs are issued and dead, and a page
// once all of its slabs are gone, so retained memory follows the slabs
// holding a pending timer.
type registry[P any] struct {
	dir atomic.Pointer[directory[P]]
	// mu serializes creating slabs and pages, removing pages and growing
	// the top-level index. pages counts pages created, in ID order, so a
	// nil slot below it is a removed page, never a skipped one.
	mu    sync.Mutex
	pages uint64
	// none stands in for every slab that is gone or was never created. Its
	// cells stay at 0, dead: a gone slab's cells could only have ended
	// there, and an ID with no slab was never scheduled.
	none slab[P]
}

// init makes r an empty registry.
func (r *registry[P]) init() { r.dir.Store(&directory[P]{}) }

// pageOf returns id's directory page, or nil if it is gone or not created.
// IDs below the index's base wrap to a huge offset and miss too.
func (r *registry[P]) pageOf(id TimerID) *page[P] {
	d := r.dir.Load()
	if i := uint64(id)>>pageShift - d.base; i < uint64(len(d.pages)) {
		return d.pages[i].Load()
	}
	return nil
}

// slabOf returns id's slab, or r.none if it is gone or was never created.
func (r *registry[P]) slabOf(id TimerID) *slab[P] {
	if p := r.pageOf(id); p != nil {
		if s := p.slabs[uint64(id)>>slabBits%pageSlabs].Load(); s != nil {
			return s
		}
	}
	return &r.none
}

// settled loads a cell's generation, waiting out the Schedule or Reschedule
// that holds it busy, for at most the rest of one queue insert.
func settled(gen *atomic.Uint64) uint64 {
	for {
		if g := gen.Load(); g&genBusy == 0 {
			return g
		}
		runtime.Gosched()
	}
}

// add fills a fresh timer's cell and leaves it busy at genFirst for
// Schedule to enqueue; no path sees the cell live before its entry's Ref is
// stored.
func (r *registry[P]) add(id TimerID, deadline int64, payload P) *slab[P] {
	s, c := r.slabFor(id), id%slabCells
	s.deadline[c].Store(deadline)
	s.payload[c] = payload
	s.gen[c].Store(genFirst | genBusy)
	return s
}

// slabFor returns id's slab for Schedule, creating it, and every page up to
// its own in ID order, if id is the first issued ID to land there. Neither
// can be gone: that takes every ID in it dead, id included.
func (r *registry[P]) slabFor(id TimerID) *slab[P] {
	if s := r.slabOf(id); s != &r.none {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; r.pages <= uint64(id)>>pageShift; r.pages++ {
		d := r.dir.Load()
		if r.pages-d.base == uint64(len(d.pages)) {
			d = r.grow(d)
		}
		d.pages[r.pages-d.base].Store(new(page[P]))
	}
	slot := &r.pageOf(id).slabs[uint64(id)>>slabBits%pageSlabs]
	if slot.Load() == nil {
		s := new(slab[P])
		if id < slabCells {
			s.dead.Store(1)
		}
		slot.Store(s)
	}
	return slot.Load()
}

// grow replaces the full top-level index with one of twice the span from
// its lowest page still present to the next page, trimming the removed
// pages below. Caller holds mu.
func (r *registry[P]) grow(d *directory[P]) *directory[P] {
	base := d.base
	for base < r.pages && d.pages[base-d.base].Load() == nil {
		base++
	}
	nd := &directory[P]{base: base, pages: make([]atomic.Pointer[page[P]], 2*(r.pages+1-base))}
	for i := base; i < r.pages; i++ {
		nd.pages[i-base].Store(d.pages[i-d.base].Load())
	}
	r.dir.Store(nd)
	return nd
}

// kill finishes the death of id, whose cell the caller swung to 0: it
// clears the payload and the Ref and returns the payload, and counts the
// death against the slab, which leaves its page at its last death, as the
// page leaves the index at its last slab.
func (r *registry[P]) kill(id TimerID, s *slab[P]) (payload P) {
	var zero P
	c := id % slabCells
	payload, s.payload[c], s.ref[c] = s.payload[c], zero, klsm.Ref[tref]{}
	if s.dead.Add(1) < slabCells {
		return payload
	}
	p := r.pageOf(id) // still present: s has not left it yet
	p.slabs[uint64(id)>>slabBits%pageSlabs].Store(nil)
	if p.gone.Add(1) == pageSlabs {
		r.mu.Lock()
		d := r.dir.Load()
		d.pages[uint64(id)>>pageShift-d.base].Store(nil)
		r.mu.Unlock()
	}
	return payload
}

// claim swings id's live cell from its generation g to 0, or to g|genBusy
// if busy, waiting out a cell another Reschedule holds busy. It returns the
// slab and g, which is 0 if the timer is dead or was never issued.
func (r *registry[P]) claim(id TimerID, busy bool) (*slab[P], uint64) {
	s := r.slabOf(id)
	for gen := &s.gen[id%slabCells]; ; {
		g, to := settled(gen), uint64(0)
		if busy {
			to = g | genBusy
		}
		if g == 0 || gen.CompareAndSwap(g, to) {
			return s, g
		}
	}
}

// cancel kills the timer if it is live, reporting whether it was, and
// returns the Ref of its queue entry, read while the kill owned the cell.
func (r *registry[P]) cancel(id TimerID) (ref klsm.Ref[tref], ok bool) {
	s, g := r.claim(id, false)
	if g == 0 {
		return ref, false
	}
	ref = s.ref[id%slabCells]
	r.kill(id, s)
	return ref, true
}

// fire kills the timer iff t is its live entry, returning its payload:
// expiry won. It waits out a busy cell, whose owner may have published t
// before storing its Ref and releasing the cell; an entry superseded
// meanwhile finds the next generation and loses.
func (r *registry[P]) fire(t tref) (payload P, ok bool) {
	s := r.slabOf(t.id)
	gen := &s.gen[t.id%slabCells]
	if settled(gen) != t.gen || !gen.CompareAndSwap(t.gen, 0) {
		return payload, false
	}
	return r.kill(t.id, s), true
}

// lookup returns a live timer's deadline for introspection: the deadline
// of the generation current across the read.
func (r *registry[P]) lookup(id TimerID) (deadline int64, ok bool) {
	s := r.slabOf(id)
	for gen := &s.gen[id%slabCells]; ; {
		g := settled(gen)
		if g == 0 {
			return 0, false
		}
		deadline = s.deadline[id%slabCells].Load()
		if gen.Load() == g {
			return deadline, true
		}
	}
}
