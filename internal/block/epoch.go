// Epoch-based reclamation (paper §4.4; Fraser, "Practical lock-freedom",
// 2004). A block or item reference retired from a published structure is
// recycled only once no reader can still hold it. The proof is one Domain
// per queue and three rules:
//
//   - A reader announces the current epoch in its Record before it loads a
//     pointer it may keep (Pin before a victim's slots, Stamp before the
//     shared pointer) and withdraws or advances the announcement only when
//     it holds nothing loaded under it.
//   - Every retirement is tagged with an epoch taken after the last store
//     that unlinks it.
//   - An owner recycles the entries whose tag every relevant announcement
//     has reached (the horizon).
//
// A reader whose announcement is at or past a tag loaded the epoch after
// the tag was taken, hence after the unlink, and cannot see the entry. A
// reader whose announcement is behind it may hold the entry and holds it
// back; a reader that announced nothing when the horizon was scanned loads
// only after the scan, hence after the unlink. So overlapping readers stall
// nothing, and a descheduled reader pins only what was retired after it
// announced. Under Go's sequentially consistent atomics no fence is needed.
// Pins are also counted, so an owner can tell that no reader has pinned
// since its last scan found none, and skip the scan (Pool.Retire).
package block

import (
	"sync"
	"sync/atomic"

	"klsm/internal/item"
)

// inactive marks an announcement word that pins nothing.
const inactive = ^uint64(0)

// Domain is one queue's reclamation domain: its epoch and the copy-on-write
// registry of its handles' records.
type Domain struct {
	// epoch advances when a retirement must outlast a current reader: a
	// winning shared publication that drops blocks, or a DistLSM retirement
	// that finds a reader pinned.
	epoch atomic.Uint64
	_     [56]byte
	// pins counts Pin calls, on a line of its own: an owner whose last scan
	// found no reader pinned, and that finds pins unmoved since, knows no
	// reader has pinned in between and need not scan again (Pool.Retire).
	pins atomic.Uint64
	_    [56]byte
	// records is scanned for the horizon. Registration is rare; regMu
	// serializes it.
	regMu   sync.Mutex
	records atomic.Pointer[[]*Record]
}

// Record is one reader's announcement, on its own cache line: a handle's
// (shared by its pool and its cursor) or a meld's guest.
type Record struct {
	// stamp is the cursor pin: every shared array the cursor may still read
	// was loaded at or after this epoch. It is held from one refresh to the
	// next.
	stamp atomic.Uint64
	// pin is the reader pin, held only inside one Spy, SpyBelow or meld.
	pin atomic.Uint64
	dom *Domain
	_   [40]byte // one record per 64-byte cache line
}

// Register returns a new record in d that announces nothing yet.
func (d *Domain) Register() *Record {
	r := &Record{dom: d}
	r.stamp.Store(inactive)
	r.pin.Store(inactive)
	d.regMu.Lock()
	var next []*Record
	if cur := d.records.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, r)
	d.records.Store(&next)
	d.regMu.Unlock()
	return r
}

// Withdraw clears r's announcements and deregisters it. r's owner must hold
// nothing loaded under them.
func (d *Domain) Withdraw(r *Record) {
	r.stamp.Store(inactive)
	r.pin.Store(inactive)
	d.regMu.Lock()
	defer d.regMu.Unlock()
	cur := d.records.Load()
	if cur == nil {
		return
	}
	next := make([]*Record, 0, len(*cur))
	for _, other := range *cur {
		if other != r {
			next = append(next, other)
		}
	}
	d.records.Store(&next)
}

// Bump advances the epoch and returns the new value: a tag for entries
// unlinked before the call, which every announcement made before it may
// still reach and none made after it can.
func (d *Domain) Bump() uint64 { return d.epoch.Add(1) }

// Horizon returns the smallest announcement among the reader pins and, with
// stamps, the cursor stamps of every record but skip. Entries tagged at or
// below it are unreachable. DistLSM retirements wait for pins only; the
// shared k-LSM's limbo waits for stamps too, skipping the draining cursor,
// which re-reads the shared pointer before it touches a block again.
func (d *Domain) Horizon(skip *Record, stamps bool) uint64 {
	h := inactive
	if recs := d.records.Load(); recs != nil {
		for _, r := range *recs {
			h = min(h, r.pin.Load())
			if stamps && r != skip {
				h = min(h, r.stamp.Load())
			}
		}
	}
	return h
}

// Domain returns the domain r announces in.
func (r *Record) Domain() *Domain { return r.dom }

// Stamp (re)announces r's cursor at the current epoch. A cursor stamps
// before it loads the shared pointer. Restamping an idle cursor is valid
// only if it re-reads the shared pointer before dereferencing any block it
// loaded under the older stamp (shutdown and quiesce paths).
func (r *Record) Stamp() { r.stamp.Store(r.dom.epoch.Load()) }

// Pin announces a reader at the current epoch, before it loads a victim's
// slots; Unpin ends the read. The announcement is stored before pins
// counts it, so a scan that follows a load of the count sees every reader
// the count includes.
func (r *Record) Pin() {
	r.pin.Store(r.dom.epoch.Load())
	r.dom.pins.Add(1)
}

// Unpin withdraws the reader pin.
func (r *Record) Unpin() { r.pin.Store(inactive) }

// limboKeep bounds the capacity an emptied limbo keeps for reuse: one merge
// of a large block can owe every dead item in it, and storage that grew for
// it should not stay pinned afterwards.
const limboKeep = 1 << 16

// limboRun is one retirement: the next nb blocks and ni obligations of its
// Limbo, which wait for epoch.
type limboRun struct {
	epoch  uint64
	nb, ni int
}

// Limbo is a first-in first-out list of epoch-tagged retirements: blocks
// and obligations (item references a transfer did not pass on). Its storage
// is reused, so parking and releasing allocates nothing in the steady
// state. Runs release in order, so a run parked behind a later tag waits
// for it; a tag only ever bounds its run's release from below. Not safe for
// concurrent use.
type Limbo[V any] struct {
	blocks []*Block[V]
	items  []*item.Item[V]
	runs   []limboRun
	// bhead, ihead and rhead count the released prefixes.
	bhead, ihead, rhead int
}

// Empty reports whether l holds nothing.
func (l *Limbo[V]) Empty() bool { return l.rhead == len(l.runs) }

// Len returns the numbers of blocks and obligations held.
func (l *Limbo[V]) Len() (blocks, items int) {
	return len(l.blocks) - l.bhead, len(l.items) - l.ihead
}

// Add parks blocks and items as one run tagged epoch. Past maxRuns runs (0:
// no bound) it folds them into the newest run, which then waits for the
// later of the two tags: a later release, never an earlier one.
func (l *Limbo[V]) Add(epoch uint64, blocks []*Block[V], items []*item.Item[V], maxRuns int) {
	if len(blocks)+len(items) == 0 {
		return
	}
	l.blocks = append(l.blocks, blocks...)
	l.items = append(l.items, items...)
	if n := len(l.runs); maxRuns > 0 && n-l.rhead >= maxRuns {
		r := &l.runs[n-1]
		r.epoch, r.nb, r.ni = max(r.epoch, epoch), r.nb+len(blocks), r.ni+len(items)
		return
	}
	l.runs = append(l.runs, limboRun{epoch: epoch, nb: len(blocks), ni: len(items)})
}

// Take moves every run of src to the tail of l with its tag, and empties
// src. Blocks past maxBlocks held fall to the garbage collector, so only a
// limbo of donor shells, which own nothing, may bound them; obligations
// past maxItems held are dropped too and counted in leaked. 0 bounds
// nothing.
func (l *Limbo[V]) Take(src *Limbo[V], maxBlocks, maxItems, maxRuns int) (leaked int64) {
	b, i := src.bhead, src.ihead
	for _, r := range src.runs[src.rhead:] {
		blocks, items := src.blocks[b:b+r.nb], src.items[i:i+r.ni]
		b, i = b+r.nb, i+r.ni
		nb, ni := l.Len()
		if maxBlocks > 0 && nb+len(blocks) > maxBlocks {
			blocks = blocks[:max(maxBlocks-nb, 0)]
		}
		if maxItems > 0 && ni+len(items) > maxItems {
			leaked += int64(len(items))
			items = nil
		}
		l.Add(r.epoch, blocks, items, maxRuns)
	}
	src.reset()
	return leaked
}

// Release recycles, into p, the blocks and obligations of the runs at the
// head whose tag is at most horizon. donors marks blocks whose references
// moved on at their retirement (the shared k-LSM's dropped blocks): their
// shells recycle and release nothing.
func (l *Limbo[V]) Release(horizon uint64, p *Pool[V], donors bool) {
	if l.Empty() || l.runs[l.rhead].epoch > horizon {
		return
	}
	for l.rhead < len(l.runs) && l.runs[l.rhead].epoch <= horizon {
		r := l.runs[l.rhead]
		for _, b := range l.blocks[l.bhead : l.bhead+r.nb] {
			if donors {
				b.Donate()
			}
			p.Put(b)
		}
		for _, it := range l.items[l.ihead : l.ihead+r.ni] {
			p.Release(it)
		}
		l.bhead, l.ihead, l.rhead = l.bhead+r.nb, l.ihead+r.ni, l.rhead+1
	}
	if l.Empty() {
		l.reset()
	} else if 2*l.rhead > len(l.runs) || 2*l.ihead > len(l.items) || 2*l.bhead > len(l.blocks) {
		l.blocks, l.items, l.runs = shift(l.blocks, l.bhead), shift(l.items, l.ihead), shift(l.runs, l.rhead)
		l.bhead, l.ihead, l.rhead = 0, 0, 0
	}
}

// reset empties l, forgetting its entries.
func (l *Limbo[V]) reset() {
	l.blocks, l.items, l.runs = Reuse(l.blocks), Reuse(l.items), l.runs[:0]
	l.bhead, l.ihead, l.rhead = 0, 0, 0
}

// Reuse empties s for reuse, dropping its storage if it grew past the
// limbo's keep bound.
func Reuse[T any](s []T) []T {
	if cap(s) > limboKeep {
		return nil
	}
	clear(s)
	return s[:0]
}

// shift moves s[head:] to the front of s and clears the vacated tail.
func shift[T any](s []T, head int) []T {
	n := copy(s, s[head:])
	clear(s[n:])
	return s[:n]
}
