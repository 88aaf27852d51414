package item

// slabSize is the number of Items allocated per slab. One slab allocation
// amortizes over slabSize inserts, taking the steady-state insert path to
// ~1/slabSize heap allocations per wrapped key.
const slabSize = 256

// Pool is a per-handle allocator and free list for Items (§4.4). It is not
// safe for concurrent use: every handle owns exactly one.
//
// Get prefers recycled items, then carves from a slab, allocating a new slab
// only when both run dry. Put recycles an item under the §4.4 reuse
// contract: the item must be taken AND unreachable from every published
// block. Two callers can supply that proof:
//
//   - the sequential LSM, where each item lives in exactly one block and is
//     provably sole-referenced the moment DeleteMin trims it, and
//   - the lineage reference-count scheme (§4.4 proper): block pools release
//     a lineage's references when its blocks and dropped items clear the
//     §4.4 quiescence proofs, and hand the item here when the last
//     reference dies on a taken item.
type Pool[V any] struct {
	free []*Item[V]
	slab []Item[V]

	// allocs counts slab allocations, reuses counts Get calls served from
	// the free list; exposed for tests and diagnostics.
	allocs int64
	reuses int64
	// puts counts items recycled through Put — exactly one Put happens per
	// taken incarnation, so the accounting tests compare this against the
	// number of successful deletes.
	puts int64
}

// NewPool returns an empty item pool.
func NewPool[V any]() *Pool[V] { return &Pool[V]{} }

// Get returns a live item holding key and value, recycling a retired item
// when one is available.
func (p *Pool[V]) Get(key uint64, value V) *Item[V] {
	if n := len(p.free); n > 0 {
		it := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
		it.Reset(key, value)
		return it
	}
	if len(p.slab) == 0 {
		p.slab = make([]Item[V], slabSize)
		p.allocs++
	}
	it := &p.slab[0]
	p.slab = p.slab[1:]
	it.key = key
	it.value = value
	return it
}

// Put recycles an item. Contract: the item is taken and unreachable from
// every published structure (the caller owns the only remaining reference).
// Panics on a live item — that is always a contract violation.
func (p *Pool[V]) Put(it *Item[V]) {
	if !it.Taken() {
		panic("item: Put of a live item")
	}
	// Drop the payload so recycled items do not pin caller memory while they
	// sit in the free list.
	var zero V
	it.value = zero
	p.puts++
	p.free = append(p.free, it)
}

// TrimFree drops free-listed items beyond max to the garbage collector.
// Pools that only ever absorb releases and never serve Get (the queue
// reaper) call it after drains so reclaimed items do not accumulate for
// the pool's lifetime; the items are taken and unreferenced, so letting
// the GC take them is safe and their ledger accounting (Puts) is already
// done.
func (p *Pool[V]) TrimFree(max int) {
	if len(p.free) <= max {
		return
	}
	clear(p.free[max:])
	p.free = p.free[:max]
}

// Puts returns the number of items recycled through Put: the exactly-once
// release count the accounting tests assert against.
func (p *Pool[V]) Puts() int64 { return p.puts }

// FreeLen returns the current free-list length, for tests.
func (p *Pool[V]) FreeLen() int { return len(p.free) }

// Stats returns (slab allocations, recycled Gets) for tests and diagnostics.
func (p *Pool[V]) Stats() (allocs, reuses int64) { return p.allocs, p.reuses }
