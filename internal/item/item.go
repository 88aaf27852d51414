// Package item implements the Item wrapper the k-LSM stores keys in
// (paper §4, "Shared components").
//
// Every key inserted into the queue is wrapped in exactly one Item. Blocks
// hold pointers to Items, and more than one pointer to the same Item may
// exist at a time (spying copies pointers, merges leave stale blocks briefly
// reachable). Deletion is logical: delete-min performs an atomic test-and-set
// on the Item's flag, so no matter how many blocks still reference the Item,
// exactly one delete-min ever returns it. Pointers to taken Items are lazily
// purged whenever blocks are copied, merged, or shrunk.
//
// Following the paper's §4.4 memory-management scheme, the flag is a
// versioned counter rather than a plain boolean: even values mean live, odd
// values mean taken, and the value only ever increases. This makes item
// reuse ABA-safe: TryTake compare-and-swaps against the exact version it
// observed, so a take attempt that raced with a recycle (take → Reset to a
// new even version) fails instead of deleting the item's next incarnation.
// Reuse itself is governed by the pool contract (see Pool): an Item may only
// be Reset once it is unreachable from every published LSM structure.
//
// # Reference counting (§4.4 proper, lineage-batched)
//
// The unreachability proof the pool contract demands is supplied by a
// per-item reference count — but unlike a naive scheme that pays two atomic
// RMWs per item per block generation, the count tracks block *lineages*:
// a reference is acquired once when an item first enters a lineage (its
// insert-time block, a spy copy, a meld copy) and released once when that
// lineage ends. Merges in between — in a handle's DistLSM and in the shared
// k-LSM alike — *transfer* ownership of their inputs' references to the
// merged block (see block.Block's transfer machinery), so the count never
// moves while an item survives generation churn. Items filtered out of a
// merge (logically deleted) travel to the §4.4 limbo machinery and release
// exactly once when the structure they were dropped from is provably
// unreachable. When Unref observes the count reach zero,
// no published structure and no concurrent reader can still reach the item;
// if the item is also taken at that point, the releasing handle returns it
// to its item Pool — exactly one release per incarnation can observe the
// zero, so an item is reclaimed exactly once. A live item can never hit
// zero: every path that unlinks a block first publishes a successor holding
// the live items (and their transferred references).
//
// The count says nothing about transient non-block references (a candidate
// pointer held across a FindMin retry, a min-cache entry): those are safe
// because the block they were read from is itself pinned by one of the
// block-reclamation proofs for as long as the reader may dereference the
// item — see DESIGN.md, "Deterministic item reclamation".
package item

import "sync/atomic"

// Item wraps a key and payload with a versioned logical-deletion flag. Items
// are created by insert and shared freely between blocks and queues; between
// Reset calls (which require exclusive ownership) only the flag and the
// reference count mutate.
type Item[V any] struct {
	key   uint64
	value V
	// seq is the durability sequence number (write-ahead-log identity) of
	// the current incarnation. It is meaningful only for queues running with
	// persistence, which stamp it on every insert via SetSeq before the item
	// is published; elsewhere it is stale or zero and never read. Like key
	// and value it is immutable between Reset calls, so merges, spies and
	// melds carry it along for free by sharing the Item pointer.
	seq uint64
	// flag is the §4.4 versioned deletion flag: even = live, odd = taken.
	// It increments monotonically — TryTake bumps even→odd, Reset bumps
	// odd→even — so stale CAS attempts from a previous incarnation fail.
	flag atomic.Uint64
	// refs counts the block lineages currently holding the item (§4.4
	// proper): acquired when the item enters a lineage and moved from
	// block to block by transfer, so it changes only when a lineage
	// begins or ends.
	refs atomic.Int64
}

// New returns a live Item holding key and value.
func New[V any](key uint64, value V) *Item[V] {
	return &Item[V]{key: key, value: value}
}

// Key returns the priority key. Smaller keys are higher priority.
func (it *Item[V]) Key() uint64 { return it.key }

// Value returns the payload stored alongside the key.
func (it *Item[V]) Value() V { return it.value }

// Seq returns the durability sequence number stamped by SetSeq. Zero (or a
// stale value from a previous incarnation) for queues without persistence.
func (it *Item[V]) Seq() uint64 { return it.seq }

// SetSeq stamps the durability sequence number. It must only be called
// between obtaining the item (New, Pool.Get) and publishing it into any
// structure — afterwards the field is shared and read-only, like key.
func (it *Item[V]) SetSeq(seq uint64) { it.seq = seq }

// Taken reports whether the item has been logically deleted. A false result
// may be stale by the time the caller acts on it; callers that need to claim
// the item must use TryTake.
func (it *Item[V]) Taken() bool { return it.flag.Load()&1 == 1 }

// Version returns the current flag value, for tests and diagnostics. The
// version increments once per take and once per reuse.
func (it *Item[V]) Version() uint64 { return it.flag.Load() }

// TryTake attempts to logically delete the item and reports whether this
// caller won. At most one TryTake per incarnation (Reset-to-Reset lifetime)
// returns true; this is the linearization point of a successful delete-min.
// The CAS is against the exact observed version, so a concurrent recycle
// (which bumps the version past it) makes the attempt fail rather than
// deleting the reused item.
func (it *Item[V]) TryTake() bool {
	v := it.flag.Load()
	return v&1 == 0 && it.flag.CompareAndSwap(v, v+1)
}

// TryTakeAt attempts to logically delete the item against a version captured
// earlier (an even value returned by Version while the item was pinned by one
// of the block-reclamation proofs). Unlike TryTake it never re-loads the
// flag: the CAS succeeds only when the item is still the same live
// incarnation the caller captured, so a reference held *without* any pin — a
// candidate-window entry or deletion-buffer entry that outlived its source
// snapshot — can be claimed safely: if the item was taken, or taken and
// recycled into a new incarnation, the version has moved and the attempt
// fails instead of deleting an item the caller never selected.
func (it *Item[V]) TryTakeAt(ver uint64) bool {
	return ver&1 == 0 && it.flag.CompareAndSwap(ver, ver+1)
}

// Ref acquires one reference on behalf of a block lineage about to hold the
// item. Callers must already hold a safe path to the item (a slot in a
// block that itself holds a reference, or exclusive ownership of a freshly
// created item), so the count can never be resurrected from zero by a
// racing reader.
func (it *Item[V]) Ref() { it.refs.Add(1) }

// Unref releases one reference and reports whether this call dropped the
// count to zero. At most one Unref per incarnation returns true; the caller
// that sees true owns the item exclusively (no lineage holds it, and the
// reclamation proofs guarantee no reader can still acquire it) and must
// either recycle it — if it is taken — or account it as lost. Panics if the
// count underflows, which indicates a transfer/release imbalance bug.
func (it *Item[V]) Unref() bool {
	n := it.refs.Add(-1)
	if n < 0 {
		panic("item: Unref below zero (ref/unref imbalance)")
	}
	return n == 0
}

// Refs returns the current reference count, for tests and diagnostics.
func (it *Item[V]) Refs() int64 { return it.refs.Load() }

// Snap is a version-stamped reference to an item: the pointer plus the even
// flag value and key observed while the holder still had a safe path to the
// item. Snaps are how the candidate window and the per-handle deletion
// buffer carry items across snapshot changes without any pin: Go's GC keeps
// the Item struct itself alive, and TryTakeAt(Ver) claims exactly the
// captured incarnation or fails. Key caches it.Key() from capture time — the
// key of an incarnation never mutates, so it stays correct for exactly as
// long as the version check passes.
type Snap[V any] struct {
	It  *Item[V]
	Ver uint64
	Key uint64
}

// Live reports whether the referenced incarnation is still live: the flag has
// not moved since capture. A true result may be stale immediately; claiming
// requires It.TryTakeAt(Ver).
func (s Snap[V]) Live() bool { return s.It.flag.Load() == s.Ver }

// Reset revives a taken item with a new key and payload for reuse (§4.4).
// The caller must guarantee exclusive ownership: the item must be taken and
// unreachable from every published block. Panics if the item is still live,
// which would indicate a pool-contract violation.
func (it *Item[V]) Reset(key uint64, value V) {
	v := it.flag.Load()
	if v&1 == 0 {
		panic("item: Reset of a live item")
	}
	it.key = key
	it.value = value
	it.flag.Store(v + 1) // odd → even: live again, new incarnation
}
