package klsm

// OrderedQueue is a Queue over an application key type K, translated into
// the engine's uint64 priority space by an order-preserving KeyCodec. The
// codec is applied at the API boundary only — the lock-free engine, its
// relaxation bound ρ = T·k, and local ordering all operate on the encoded
// keys, so every Queue guarantee carries over verbatim to the order the
// codec preserves. Create one with NewOrdered; access it through explicit
// OrderedHandles (the fast path) or the handle-free queue-level methods.
type OrderedQueue[K, V any] struct {
	q     *Queue[V]
	codec KeyCodec[K]
}

// OrderedHandle is one goroutine's access point to an OrderedQueue, the
// codec-translating counterpart of Handle. Like a Handle it must not be
// used by two goroutines concurrently.
type OrderedHandle[K, V any] struct {
	h     *Handle[V]
	codec KeyCodec[K]
}

// NewOrdered returns an empty queue keyed by K through codec, configured by
// opts exactly like New. Use the built-in codecs (Uint64Key, Int64Key,
// Float64Key, TimeKey, StringPrefixKey) or any custom KeyCodec
// implementation.
func NewOrdered[K, V any](codec KeyCodec[K], opts ...Option) *OrderedQueue[K, V] {
	if codec == nil {
		panic("klsm: nil KeyCodec")
	}
	return &OrderedQueue[K, V]{q: New[V](opts...), codec: codec}
}

// NewOrderedWithDrop is NewOrdered with a lazy-deletion callback (see
// NewWithDrop); the callback receives decoded keys.
func NewOrderedWithDrop[K, V any](codec KeyCodec[K], drop func(key K, value V) bool, opts ...Option) *OrderedQueue[K, V] {
	if codec == nil {
		panic("klsm: nil KeyCodec")
	}
	var wrapped DropFunc[V]
	if drop != nil {
		wrapped = func(key uint64, value V) bool { return drop(codec.Decode(key), value) }
	}
	return &OrderedQueue[K, V]{q: NewWithDrop(wrapped, opts...), codec: codec}
}

// OpenOrdered is Open for ordered key types: a persistent queue rooted at
// dir, keyed by K through keyCodec, with payloads serialized by valueCodec.
// Only the encoded uint64 keys are persisted, so the key codec must be
// stable across restarts (the same caveat as any persisted encoding).
func OpenOrdered[K, V any](dir string, keyCodec KeyCodec[K], valueCodec ValueCodec[V], opts ...Option) (*OrderedQueue[K, V], error) {
	if keyCodec == nil {
		panic("klsm: nil KeyCodec")
	}
	q, err := Open(dir, valueCodec, opts...)
	if err != nil {
		return nil, err
	}
	return &OrderedQueue[K, V]{q: q, codec: keyCodec}, nil
}

// Close shuts the queue down; see Queue.Close.
func (q *OrderedQueue[K, V]) Close() error { return q.q.Close() }

// Sync blocks until every prior operation is durable; see Queue.Sync.
func (q *OrderedQueue[K, V]) Sync() error { return q.q.Sync() }

// Checkpoint compacts the durability state; see Queue.Checkpoint.
func (q *OrderedQueue[K, V]) Checkpoint() error { return q.q.Checkpoint() }

// PersistStats returns the durability counters; see Queue.PersistStats.
func (q *OrderedQueue[K, V]) PersistStats() PersistStats { return q.q.PersistStats() }

// NewHandle registers a new handle; see Queue.NewHandle for the handle
// contract and the effect on ρ.
func (q *OrderedQueue[K, V]) NewHandle() *OrderedHandle[K, V] {
	return &OrderedHandle[K, V]{h: q.q.NewHandle(), codec: q.codec}
}

// Codec returns the queue's key codec.
func (q *OrderedQueue[K, V]) Codec() KeyCodec[K] { return q.codec }

// Size returns the approximate number of keys; see Queue.Size.
func (q *OrderedQueue[K, V]) Size() int { return q.q.Size() }

// K returns the current relaxation parameter; see Queue.K.
func (q *OrderedQueue[K, V]) K() int { return q.q.K() }

// SetRelaxation reconfigures k at run time; see Queue.SetRelaxation for
// propagation and validation semantics.
func (q *OrderedQueue[K, V]) SetRelaxation(k int) { q.q.SetRelaxation(k) }

// Rho returns the current worst-case relaxation bound T·k; see Queue.Rho.
func (q *OrderedQueue[K, V]) Rho() int { return q.q.Rho() }

// Quiesce drives deferred reclamation to completion; see Queue.Quiesce for
// the (non-)concurrency contract.
func (q *OrderedQueue[K, V]) Quiesce() { q.q.Quiesce() }

// Insert adds key with the given payload without an explicit handle; see
// Queue.Insert for the handle-free trade-offs.
func (q *OrderedQueue[K, V]) Insert(key K, value V) {
	q.q.Insert(q.codec.Encode(key), value)
}

// InsertRef is Insert returning a Ref to the inserted item; see
// Handle.InsertRef.
func (q *OrderedQueue[K, V]) InsertRef(key K, value V) Ref[V] {
	return q.q.InsertRef(q.codec.Encode(key), value)
}

// Delete removes the item r names, reporting whether this call removed it;
// see Queue.Delete.
func (q *OrderedQueue[K, V]) Delete(r Ref[V]) bool { return q.q.Delete(r) }

// TryDeleteMin removes and returns a key among the ρ+1 smallest (in codec
// order) without an explicit handle; see Queue.TryDeleteMin.
func (q *OrderedQueue[K, V]) TryDeleteMin() (key K, value V, ok bool) {
	ek, value, ok := q.q.TryDeleteMin()
	if !ok {
		var zero K
		return zero, value, false
	}
	return q.codec.Decode(ek), value, true
}

// PeekMin returns a key TryDeleteMin could return without removing it; see
// Queue.PeekMin.
func (q *OrderedQueue[K, V]) PeekMin() (key K, value V, ok bool) {
	ek, value, ok := q.q.PeekMin()
	if !ok {
		var zero K
		return zero, value, false
	}
	return q.codec.Decode(ek), value, true
}

// InsertBatch inserts len(keys) keys in one structural operation through a
// registry handle; see Handle.InsertBatch for semantics. The borrowed
// handle's encode scratch is reused, so steady-state handle-free batch
// inserts allocate nothing for the translation.
func (q *OrderedQueue[K, V]) InsertBatch(keys []K, values []V) {
	h := q.q.borrowHandle()
	defer q.q.returnHandle(h)
	insertBatchEncoded(h, q.codec, keys, values)
}

// DrainMin removes up to n items through a registry handle, appending them
// to dst in pop order; see Handle.DrainMin.
func (q *OrderedQueue[K, V]) DrainMin(dst []KV[K, V], n int) []KV[K, V] {
	h := q.q.borrowHandle()
	defer q.q.returnHandle(h)
	return drainMinDecoded(h, q.codec, dst, n)
}

// DrainMinBounded removes up to n items whose keys are at or below bound (in
// codec order) through a registry handle, appending them to dst in pop
// order; see Handle.DrainMinBounded for the bounded-drain contract. This is
// the tick primitive for deadline queues: with TimeKey, bound is "now" and
// the result is every due item, early-exited with a strong "nothing further
// due" signal.
func (q *OrderedQueue[K, V]) DrainMinBounded(dst []KV[K, V], n int, bound K) []KV[K, V] {
	h := q.q.borrowHandle()
	defer q.q.returnHandle(h)
	return drainMinBoundedDecoded(h, q.codec, dst, n, q.codec.Encode(bound))
}

// Stats returns an aggregated snapshot of the queue's structural counters;
// see Queue.Stats.
func (q *OrderedQueue[K, V]) Stats() Stats { return q.q.Stats() }

// Footprint returns the physical item-slot count of the queue's published
// blocks; see Queue.Footprint.
func (q *OrderedQueue[K, V]) Footprint() int { return q.q.Footprint() }

// Compact physically reclaims logically deleted and filter-dropped items
// through a registry handle; see Queue.Compact.
func (q *OrderedQueue[K, V]) Compact() { q.q.Compact() }

// insertBatchEncoded encodes keys into the handle's encode scratch (owned
// exclusively by the caller while it holds the handle) and runs the engine
// batch insert; the scratch stays on the handle for reuse.
func insertBatchEncoded[K, V any](h *Handle[V], codec KeyCodec[K], keys []K, values []V) {
	enc := h.enc[:0]
	for _, k := range keys {
		enc = append(enc, codec.Encode(k))
	}
	h.enc = enc
	h.InsertBatch(enc, values)
}

// drainMinDecoded pops up to n items through h, decoding keys into dst; on a
// persistent queue each pop logs its delete record.
func drainMinDecoded[K, V any](h *Handle[V], codec KeyCodec[K], dst []KV[K, V], n int) []KV[K, V] {
	p := h.persist()
	h.h.DrainMinSeq(n, func(k uint64, v V, seq uint64) {
		if p != nil {
			p.appendDelete(k, seq)
		}
		dst = append(dst, KV[K, V]{Key: codec.Decode(k), Value: v})
	})
	return dst
}

// drainMinBoundedDecoded is drainMinDecoded restricted to encoded keys at or
// below bound; see Handle.DrainMinBounded.
func drainMinBoundedDecoded[K, V any](h *Handle[V], codec KeyCodec[K], dst []KV[K, V], n int, bound uint64) []KV[K, V] {
	p := h.persist()
	h.h.DrainMinBoundedSeq(bound, n, func(k uint64, v V, seq uint64) {
		if p != nil {
			p.appendDelete(k, seq)
		}
		dst = append(dst, KV[K, V]{Key: codec.Decode(k), Value: v})
	})
	return dst
}

// Close retires the handle; see Handle.Close.
func (h *OrderedHandle[K, V]) Close() { h.h.Close() }

// Meld absorbs all items of other into this handle's queue; see
// Handle.Meld. The queues must share one codec (key spaces are translated
// identically).
func (h *OrderedHandle[K, V]) Meld(other *OrderedQueue[K, V]) {
	if other == nil {
		return
	}
	h.h.Meld(other.q)
}

// Insert adds key with the given payload; see Handle.Insert.
func (h *OrderedHandle[K, V]) Insert(key K, value V) {
	h.h.Insert(h.codec.Encode(key), value)
}

// TryDeleteMin removes and returns a key among the ρ+1 smallest in codec
// order, preferring this handle's own keys; see Handle.TryDeleteMin.
func (h *OrderedHandle[K, V]) TryDeleteMin() (key K, value V, ok bool) {
	ek, value, ok := h.h.TryDeleteMin()
	if !ok {
		var zero K
		return zero, value, false
	}
	return h.codec.Decode(ek), value, true
}

// PeekMin returns a key TryDeleteMin could return without removing it; see
// Handle.PeekMin.
func (h *OrderedHandle[K, V]) PeekMin() (key K, value V, ok bool) {
	ek, value, ok := h.h.PeekMin()
	if !ok {
		var zero K
		return zero, value, false
	}
	return h.codec.Decode(ek), value, true
}

// InsertBatch inserts len(keys) keys in one structural operation; see
// Handle.InsertBatch for the batching semantics and the values contract.
// The encode scratch is retained on the underlying handle, so steady-state
// batch inserts do not allocate for the translation.
func (h *OrderedHandle[K, V]) InsertBatch(keys []K, values []V) {
	insertBatchEncoded(h.h, h.codec, keys, values)
}

// DrainMin removes up to n items, appending them to dst in pop order; see
// Handle.DrainMin for the per-pop contract and early-exit semantics.
func (h *OrderedHandle[K, V]) DrainMin(dst []KV[K, V], n int) []KV[K, V] {
	return drainMinDecoded(h.h, h.codec, dst, n)
}

// DrainMinBounded removes up to n items whose keys are at or below bound in
// codec order, appending them to dst in pop order; see Handle.DrainMinBounded.
func (h *OrderedHandle[K, V]) DrainMinBounded(dst []KV[K, V], n int, bound K) []KV[K, V] {
	return drainMinBoundedDecoded(h.h, h.codec, dst, n, h.codec.Encode(bound))
}

// TryDeleteMinBounded removes and returns a relaxed-minimal key only when it
// is at or below bound in codec order; see Handle.TryDeleteMinBounded.
func (h *OrderedHandle[K, V]) TryDeleteMinBounded(bound K) (key K, value V, ok bool) {
	ek, value, ok := h.h.TryDeleteMinBounded(h.codec.Encode(bound))
	if !ok {
		var zero K
		return zero, value, false
	}
	return h.codec.Decode(ek), value, true
}

// Compact physically reclaims logically deleted and filter-dropped items
// from this handle's structures; see Handle.Compact.
func (h *OrderedHandle[K, V]) Compact() { h.h.Compact() }
