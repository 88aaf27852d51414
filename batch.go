package klsm

// KV is one key/payload pair, as returned by the batch drain operations.
type KV[K, V any] struct {
	// Key is the priority key the pair was inserted under.
	Key K
	// Value is the payload inserted with the key.
	Value V
}

// InsertBatch inserts len(keys) keys in one structural operation. The batch
// is sorted once and published as a single block at level ⌈log₂n⌉ — one
// merge cascade for the whole batch instead of n independent insert
// cascades, which is the LSM's own internal batching (§4.1) surfaced at the
// API; for pre-sorted input the sort degenerates to a verification scan.
// Each key becomes visible to every handle at the batch block's publication,
// and the relaxation bound ρ = T·k is preserved for every batch size
// (oversized blocks overflow to the shared structure exactly like merged
// ones). values supplies the payloads pairwise; it may be nil, inserting
// zero values, but any non-nil values must have len(values) == len(keys) or
// InsertBatch panics.
// On a persistent queue the batch reserves a contiguous run of durability
// sequence numbers, logs one WAL record per key, and publishes the block
// stamped with them; the whole batch is durable once a Sync covering it
// returns.
func (h *Handle[V]) InsertBatch(keys []uint64, values []V) {
	if p := h.persist(); p != nil {
		h.insertBatchLogged(p, keys, values)
		return
	}
	h.h.InsertBatch(keys, values)
}

// insertBatchLogged is the persistent InsertBatch path: validate first (a
// length mismatch must panic before any record is logged), then log, then
// publish.
func (h *Handle[V]) insertBatchLogged(p *persister[V], keys []uint64, values []V) {
	if values != nil && len(values) != len(keys) {
		panic("klsm: InsertBatch: len(values) != len(keys)")
	}
	n := len(keys)
	if n == 0 {
		return
	}
	end := p.seq.Add(uint64(n))
	base := end - uint64(n) + 1
	seqs := make([]uint64, n)
	var zero V
	for i, k := range keys {
		seqs[i] = base + uint64(i)
		v := zero
		if values != nil {
			v = values[i]
		}
		h.vbuf = p.appendInsert(h.vbuf[:0], k, v, seqs[i])
	}
	h.h.InsertBatchSeqs(keys, values, seqs)
}

// DrainMin removes up to n items, appends them to dst in pop order, and
// returns the extended slice (append semantics: pass a nil or recycled
// slice). Each pop individually satisfies the relaxed TryDeleteMin
// contract; the drain stops early when the queue is relaxed-empty, so
// len(result) - len(dst) < n signals emptiness exactly like a false
// TryDeleteMin. The candidate window persists across the pops, making a
// steady-state drain one window build plus n O(1) pops.
// On a persistent queue every pop logs its delete record, with the same
// acknowledgement rule as TryDeleteMin.
func (h *Handle[V]) DrainMin(dst []KV[uint64, V], n int) []KV[uint64, V] {
	return drainMinDecoded(h, Uint64Key(), dst, n)
}

// DrainMinBounded is DrainMin restricted to keys at or below bound: it
// removes up to n items with qualifying keys, appends them to dst in pop
// order, and returns the extended slice. The drain stops early when no
// reachable key <= bound remains (see TryDeleteMinBounded for the strength
// of that signal); a short result therefore means "nothing further is due",
// not necessarily "the queue is empty". The per-pop relaxation contract and
// the persistent-queue logging rule match DrainMin exactly.
func (h *Handle[V]) DrainMinBounded(dst []KV[uint64, V], n int, bound uint64) []KV[uint64, V] {
	return drainMinBoundedDecoded(h, Uint64Key(), dst, n, bound)
}
