package core

import (
	"klsm/internal/block"
)

// Meld absorbs all items currently in other into q (paper §4.5). Melding is
// a natural LSM operation because it reduces to block merges, but — as the
// paper notes — it is *not* linearizable: items move over one at a block at
// a time, and operations concurrent with the meld may observe intermediate
// states in which an item is visible in both queues or (relaxedly) in
// neither's fast path. Item identity makes this safe: the underlying Items
// are shared, so exactly-once deletion holds across both queues throughout.
//
// The caller drives the meld through a handle of q (the destination).
// `other` must not receive new inserts during the meld or those items may be
// missed; concurrent delete-mins on either queue are fine.
func (h *Handle[V]) Meld(other *Queue[V]) {
	if other == nil || other.Queue() == h.q {
		return
	}
	// Melded-in keys may undercut the buffer's fill-time bounds. The
	// shared-side inserts below would invalidate the anchor anyway; flushing
	// up front keeps the reasoning local.
	h.bufInvalidate()
	// Pin a guest record in other's epoch domain before reading any of its
	// blocks (§4.4 reuse contract): while pinned, none of other's handles
	// recycles a block, or releases an obligation, retired after the pin,
	// so every block pointer read below stays valid. The guest's stamp
	// stays inactive: the pin alone covers other's shared blocks too.
	guest := other.dom.Register()
	guest.Pin()
	// Move the contents of every handle-local DistLSM of other. Spy gives a
	// consistent-enough copy (it never misses an item that was present when
	// other went quiescent); inserting the copied blocks into q's shared
	// k-LSM makes them reachable to all of q's handles. Copies are drawn
	// from h's pool so that they acquire item references spanning both
	// queues: neither queue can reclaim an item the other still reaches.
	victims := *other.victims.Load()
	for _, v := range victims {
		tmp := newMeldCollector[V](h.pool)
		tmp.spyAll(v)
		for _, b := range tmp.blocks {
			h.q.shared.Insert(h.cursor, b)
		}
	}
	// Move the shared k-LSM content: snapshot its blocks and re-insert them.
	if snap := other.shared.Snapshot(); snap != nil {
		for i := 0; i < snap.Blocks(); i++ {
			b := snap.BlockAt(i)
			if b == nil || b.Empty() {
				continue
			}
			// Copy filters taken items so we do not balloon q with garbage.
			nb := b.CopyIn(h.pool, b.Level())
			if nb.Empty() {
				h.pool.Put(nb)
				continue
			}
			s := nb.ShrinkIn(h.pool)
			if s != nb {
				h.pool.Put(nb)
			}
			h.q.shared.Insert(h.cursor, s)
		}
	}
	other.dom.Withdraw(guest)
	// Account the moved items on this handle so Size stays within its
	// relaxed bound: melded items were counted in other's balance — its open
	// handles, the totals of its closed handles and its Deletes — so transfer
	// all of it.
	other.mu.Lock()
	moved := other.closedStats.Inserted - other.closedStats.Deleted - other.refDeleted.Swap(0)
	other.closedStats.Inserted, other.closedStats.Deleted = 0, 0
	for _, oh := range other.handles {
		moved += oh.inserted.Swap(0) - oh.deleted.Swap(0)
	}
	other.mu.Unlock()
	if moved > 0 {
		h.inserted.Add(moved)
	}
}

// Queue returns the queue this handle belongs to.
func (h *Handle[V]) Queue() *Queue[V] { return h.q }

// Queue exposes itself for Meld's identity check.
func (q *Queue[V]) Queue() *Queue[V] { return q }

// handlesSnapshot returns a copy of the handle list.
func (q *Queue[V]) handlesSnapshot() []*Handle[V] {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]*Handle[V](nil), q.handles...)
}

// meldCollector gathers copies of a DistLSM's blocks without the level
// restrictions of the regular spy (meld wants everything). Copies come from
// the melding handle's pool so they join its refcount domain.
type meldCollector[V any] struct {
	pool   *block.Pool[V]
	blocks []*block.Block[V]
}

func newMeldCollector[V any](p *block.Pool[V]) *meldCollector[V] {
	return &meldCollector[V]{pool: p}
}

// spyAll copies every non-empty block of v.
func (m *meldCollector[V]) spyAll(v interface {
	Blocks() int
	BlockAt(int) *block.Block[V]
}) {
	n := v.Blocks()
	for i := 0; i < n; i++ {
		b := v.BlockAt(i)
		if b == nil || b.Empty() {
			continue
		}
		nb := b.CopyIn(m.pool, b.Level())
		if nb.Empty() {
			m.pool.Put(nb)
			continue
		}
		s := nb.ShrinkIn(m.pool)
		if s != nb {
			m.pool.Put(nb)
		}
		m.blocks = append(m.blocks, s)
	}
}
