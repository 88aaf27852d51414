package klsm

// Handle-free queue-level operations.
//
// v1 required every caller to manage an explicit per-goroutine Handle. That
// remains the fast path — a Handle pins its DistLSM, its snapshot cursor and
// its pools to one goroutine with zero synchronization — but it is the wrong
// default for callers whose goroutines are short-lived or framework-managed
// (worker pools, per-request goroutines), where handle churn either leaks
// registered handles (growing ρ = T·k without bound) or forces awkward
// plumbing.
//
// The queue-level operations below borrow a Handle from an internal
// registry for the duration of one operation and return it afterwards.
// Exclusive ownership while borrowed preserves the one-goroutine-per-handle
// contract; returned handles are recycled instead of closed, so the handle
// count T — and with it ρ = T·k — is bounded by the peak number of concurrent
// handle-free operations, not by the number of goroutines that ever touched
// the queue.

// borrowHandle claims a free registry handle: first the one this P returned
// last (the per-P hint), then any free handle in the registry, registering a
// new one only when every handle was found borrowed. A claim is one
// compare-and-swap on the handle's lent flag, so operations on different
// CPUs neither share a lock nor trade handles, and each CPU's operations
// keep reusing one cache-warm DistLSM.
func (q *Queue[V]) borrowHandle() *Handle[V] {
	if q.closed.Load() {
		panic(ErrClosed)
	}
	if h, _ := q.hint.Get().(*Handle[V]); h != nil && h.lent.CompareAndSwap(false, true) {
		return h
	}
	if hs := q.registry.Load(); hs != nil {
		for _, h := range *hs {
			if !h.lent.Load() && h.lent.CompareAndSwap(false, true) {
				return h
			}
		}
	}
	h := q.NewHandle()
	h.lent.Store(true)
	q.regMu.Lock()
	var next []*Handle[V]
	if cur := q.registry.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, h)
	q.registry.Store(&next)
	q.regMu.Unlock()
	return h
}

// returnHandle frees a borrowed handle and leaves it as this P's hint. The
// Store that clears lent orders the borrower's operations before those of
// whoever claims the handle next, so consecutive users of one handle never
// overlap — the single-goroutine contract holds.
func (q *Queue[V]) returnHandle(h *Handle[V]) {
	h.lent.Store(false)
	q.hint.Put(h)
}

// Insert adds key with the given payload without an explicit Handle, using
// a registry handle for the single operation. Semantics match
// Handle.Insert. Prefer an explicit Handle on hot paths: the borrow costs a
// per-P cache lookup and a compare-and-swap per operation, and local
// ordering applies per registry handle, not per goroutine (consecutive
// operations on one CPU usually share a handle, but nothing guarantees it).
//
// All handle-free operations return their borrowed handle via defer: a
// panic escaping the operation (a batch length mismatch, a faulty codec in
// the ordered wrappers) must not strand a registered handle outside the
// registry — that would grow ρ = T·k on every recovered panic, the exact
// leak the registry exists to prevent.
func (q *Queue[V]) Insert(key uint64, value V) {
	h := q.borrowHandle()
	defer q.returnHandle(h)
	h.Insert(key, value)
}

// InsertRef is Insert returning a Ref to the inserted item, through a
// registry handle; see Handle.InsertRef.
func (q *Queue[V]) InsertRef(key uint64, value V) Ref[V] {
	h := q.borrowHandle()
	defer q.returnHandle(h)
	return h.InsertRef(key, value)
}

// TryDeleteMin removes and returns a key among the ρ+1 smallest without an
// explicit Handle, with the same relaxed contract as Handle.TryDeleteMin.
// See Insert for the cost trade-off of the handle-free path.
func (q *Queue[V]) TryDeleteMin() (key uint64, value V, ok bool) {
	h := q.borrowHandle()
	defer q.returnHandle(h)
	return h.TryDeleteMin()
}

// PeekMin returns a key TryDeleteMin could return without removing it,
// using a registry handle. The result is relaxed exactly like
// Handle.PeekMin's and may be stale by the time the caller acts on it.
func (q *Queue[V]) PeekMin() (key uint64, value V, ok bool) {
	h := q.borrowHandle()
	defer q.returnHandle(h)
	return h.PeekMin()
}

// InsertBatch inserts len(keys) keys in one structural operation through a
// registry handle; see Handle.InsertBatch for the batching semantics and
// the values contract.
func (q *Queue[V]) InsertBatch(keys []uint64, values []V) {
	h := q.borrowHandle()
	defer q.returnHandle(h)
	h.InsertBatch(keys, values)
}

// DrainMin removes up to n items through a registry handle, appending them
// to dst in pop order and returning the extended slice; see Handle.DrainMin
// for the per-pop contract and early-exit semantics.
func (q *Queue[V]) DrainMin(dst []KV[uint64, V], n int) []KV[uint64, V] {
	h := q.borrowHandle()
	defer q.returnHandle(h)
	return h.DrainMin(dst, n)
}

// DrainMinBounded removes up to n items with keys at or below bound through
// a registry handle, appending them to dst in pop order and returning the
// extended slice; see Handle.DrainMinBounded for the bounded-drain contract
// and the strength of its early-exit signal.
func (q *Queue[V]) DrainMinBounded(dst []KV[uint64, V], n int, bound uint64) []KV[uint64, V] {
	h := q.borrowHandle()
	defer q.returnHandle(h)
	return h.DrainMinBounded(dst, n, bound)
}
