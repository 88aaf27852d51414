package server

import (
	"klsm"
)

// Router places topics on shards and exposes the sharded queue in process,
// without the HTTP layer: the serving handlers route through it, and the
// sharded rank-bound quality suite drives it directly with the ostat
// machinery. Payloads are strings — the serving layer's wire type.
//
// The Router owns no handles itself; like klsm.Queue, per-goroutine access
// goes through a Handle (one klsm.Handle per shard), so the per-shard
// handle count T — and with it the composed bound S·T·k — is the number of
// Router handles created.
type Router struct {
	shards []*klsm.Queue[string]
	ring   *ring
}

// NewRouter builds a router over the given shard queues. The queues are
// owned by the caller: the router never closes them.
func NewRouter(shards []*klsm.Queue[string]) *Router {
	if len(shards) == 0 {
		panic("server: NewRouter needs at least one shard")
	}
	return &Router{shards: shards, ring: newRing(len(shards))}
}

// Shards returns the shard count S.
func (r *Router) Shards() int { return len(r.shards) }

// Shard returns the index of the shard owning topic.
func (r *Router) Shard(topic string) int { return r.ring.lookup(topic) }

// Queue returns shard i's queue (for stats and maintenance; operations
// should go through a Handle).
func (r *Router) Queue(i int) *klsm.Queue[string] { return r.shards[i] }

// Size returns the total key count across shards. Like klsm.Queue.Size it
// is approximate while operations are in flight, exact when quiescent.
func (r *Router) Size() int {
	n := 0
	for _, q := range r.shards {
		n += q.Size()
	}
	return n
}

// Rho returns the router's composed relaxation bound S·T·k, computed as the
// sum of the shards' ρ = T·k (shards may differ in T when callers also hold
// direct queue handles — the sum is the honest bound either way).
func (r *Router) Rho() int {
	rho := 0
	for _, q := range r.shards {
		rho += q.Rho()
	}
	return rho
}

// Handle is one goroutine's access point to the sharded queue: one
// klsm.Handle per shard. Like klsm.Handle it must not be used by two
// goroutines concurrently.
type Handle struct {
	r  *Router
	hs []*klsm.Handle[string]
}

// NewHandle registers a handle on every shard. Each call raises every
// shard's T by one, and so the composed bound by S·k.
func (r *Router) NewHandle() *Handle {
	h := &Handle{r: r, hs: make([]*klsm.Handle[string], len(r.shards))}
	for i, q := range r.shards {
		h.hs[i] = q.NewHandle()
	}
	return h
}

// Close retires the handle on every shard.
func (h *Handle) Close() {
	for _, sh := range h.hs {
		sh.Close()
	}
}

// Insert adds key with the given payload to topic's shard.
func (h *Handle) Insert(topic string, key uint64, value string) {
	h.hs[h.r.ring.lookup(topic)].Insert(key, value)
}

// InsertBatch inserts the batch into topic's shard as one structural
// operation (klsm.Handle.InsertBatch semantics, including the values
// contract).
func (h *Handle) InsertBatch(topic string, keys []uint64, values []string) {
	h.hs[h.r.ring.lookup(topic)].InsertBatch(keys, values)
}

// DrainTopic removes up to n items from topic's shard, appending them to
// dst in pop order (klsm.Handle.DrainMin semantics).
func (h *Handle) DrainTopic(topic string, dst []klsm.KV[uint64, string], n int) []klsm.KV[uint64, string] {
	return h.hs[h.r.ring.lookup(topic)].DrainMin(dst, n)
}

// DeleteMinGlobal removes and returns a small key across all shards: it
// peeks every shard and pops from the one whose peek is smallest.
//
// The composed bound: each shard's peek is among that shard's T·k+1
// smallest keys, so at most T·k keys per shard are smaller than its peek,
// and the popped key — taken from the shard with the minimal peek — has at
// most T·k smaller keys in its own shard (its own relaxation) and at most
// T·k in each other shard whenever it does not exceed that shard's peek.
// With single-owner shards and local ordering the pop returns exactly the
// peeked key (measured rank 0 per shard, E16), making the S·T·k envelope
// exact; under concurrency the pop may race past the peek by at most the
// shard's own relaxation, which the concurrent suite absorbs in the same
// P-1 linearization slack the unsharded suite uses.
func (h *Handle) DeleteMinGlobal() (key uint64, value string, ok bool) {
	best, bestKey := -1, uint64(0)
	for i, sh := range h.hs {
		if k, _, ok := sh.PeekMin(); ok && (best < 0 || k < bestKey) {
			best, bestKey = i, k
		}
	}
	if best >= 0 {
		if k, v, ok := h.hs[best].TryDeleteMin(); ok {
			return k, v, true
		}
	}
	// Every peek was empty, or the argmin pop lost a race to a concurrent
	// deleter: sweep the shards so emptiness is only reported when every
	// shard declined (a false here is as spurious as a false TryDeleteMin).
	for i := range h.hs {
		if i == best {
			continue
		}
		if k, v, ok := h.hs[i].TryDeleteMin(); ok {
			return k, v, true
		}
	}
	return 0, "", false
}
