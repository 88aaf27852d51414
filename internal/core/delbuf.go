package core

import (
	"slices"

	"klsm/internal/item"
)

// Per-handle deletion buffer (MultiQueue-style, after "Engineering
// MultiQueues" — see DESIGN.md): TryDeleteMin refills a small owner-local
// buffer of version-stamped candidates from the shared candidate window and
// the DistLSM min scan in one pass, and the common delete becomes a buffer
// pop whose only shared-state touch is one pointer load (the anchor check)
// and the claiming CAS on the item itself.
//
// The buffer is a pure candidate *cache*: entries are never taken at fill
// time, so flushing it is a discard with zero obligations — the items stay
// live in their blocks, findable by every handle (the candidate window marks
// itself dirty when entries are consumed into a buffer, and rebuilds when it
// runs dry, so buffered-but-never-taken items are always recoverable).
// Buffered items therefore count toward the (k+1)·P relaxation accounting
// exactly as unbuffered live items do: they are live until the pop's
// TryTakeAt, which is the linearization point.
//
// Correctness of a buffered pop, validated entirely at pop time:
//
//   - ρ bound: every entry key is <= min(pivotKey, overlay, guard) of the
//     fill. While the shared pointer still equals the fill's anchor, at most
//     k live shared keys are below the pivot bound (FillCandidates'
//     contract), so a pop is within the k+1 smallest of the shared side plus
//     this handle's local items — the same per-handle bound every other
//     delete path meets. The anchor check runs before every pop; any shared
//     publication flushes the buffer.
//   - local ordering: entries are capped by the fill-time overlay bound (no
//     Bloom-matching shared block held a smaller key) and by the DistLSM
//     guard (the collected dist entries are a complete ascending prefix of
//     the handle's local live keys up to the cap). Both only move on the
//     handle's own mutations, each of which restores the invariant: an
//     insert splices itself in at its ascending position (bufInsert), a
//     batch insert truncates at the batch minimum (bufTruncate), spy and
//     meld flush outright (bufInvalidate).
//   - exactly-once: TryTakeAt claims the exact captured incarnation or
//     fails, so a stale entry (taken elsewhere, possibly recycled) is
//     skipped, never double-delivered.
//
// Pops drain in ascending key order — a documented deviation from the
// uniform-random draw, strictly better for rank quality — and ascending
// order is also what lets one guard key validate the whole dist prefix.
const (
	// delBufSize is the deletion-buffer capacity. Larger buffers amortize
	// refills further but pin the handle to its anchored view longer,
	// surfacing staler (still bound-respecting) keys.
	delBufSize = 32
	// delBufPerBlock bounds how many candidates one DistLSM block
	// contributes per fill.
	delBufPerBlock = 8
	// maxDrainFill caps the refill size DrainMin may request beyond the
	// buffer capacity.
	maxDrainFill = 1024
)

// bufInvalidate discards the buffer after a mutation that invalidates the
// fill-time bounds wholesale (spy, meld) or retires the handle (close). The
// entries were never taken, so discarding them has no conservation effect.
func (h *Handle[V]) bufInvalidate() {
	if h.bufPos < len(h.buf) {
		h.BufFlushes.Add(1)
	}
	clear(h.buf)
	h.buf = h.buf[:0]
	h.bufPos = 0
	h.bufAnchor = nil
	h.bufCapKey = 0
}

// bufInsert splices the owner's freshly inserted item into the buffer at
// its ascending position, instead of flushing: the new key is then popped
// exactly at its turn, and the buffered entries above it — which a flush
// would discard and a refill re-collect — stay. The fill-time bounds are
// undisturbed because the insert landed in the handle's own DistLSM: the
// shared anchor and pivot did not move (an overflow publication moves the
// anchor, and the next pop's anchor check flushes everything including the
// spliced entry), and the dist-prefix completeness below bufCapKey is
// exactly what the splice maintains. Keys above bufCapKey need nothing:
// every buffered entry is at or below the cap, so none shadows them.
func (h *Handle[V]) bufInsert(it *item.Item[V], ver, key uint64) {
	if h.bufPos >= len(h.buf) || key > h.bufCapKey {
		return
	}
	i, _ := slices.BinarySearchFunc(h.buf[h.bufPos:], key, func(e item.Snap[V], k uint64) int {
		switch {
		case e.Key < k:
			return -1
		case e.Key > k:
			return 1
		default:
			return 0
		}
	})
	i += h.bufPos
	h.buf = append(h.buf, item.Snap[V]{})
	copy(h.buf[i+1:], h.buf[i:])
	h.buf[i] = item.Snap[V]{It: it, Ver: ver, Key: key}
	if len(h.buf)-h.bufPos > delBufSize {
		// Keep the buffer bounded: the dropped tail entry stays live and
		// findable, like any flushed candidate. The cap must come down to
		// the largest remaining entry, though — at the old cap, a later
		// splice could admit a key above the dropped one, and its pop would
		// skip the dropped key while it is still live.
		n := len(h.buf) - 1
		h.buf[n] = item.Snap[V]{}
		h.buf = h.buf[:n]
		h.bufCapKey = h.buf[n-1].Key
	}
}

// bufTruncate drops the buffered candidates above key after the owner
// batch-inserted keys with minimum key. The buffer is sorted ascending, so
// only a tail is cut: the surviving entries are all <= key and ascending
// pops meet the batch keys at their turns (the refill after the buffer
// drains finds them in the structure), while entries at or below the
// minimum stay valid under the unchanged fill-time bounds — a local batch
// publication moves neither the shared anchor nor the pivot (an overflow
// does, and the anchor check catches it). Single inserts use the stronger
// bufInsert splice instead; a full flush here would discard candidates a
// refill immediately re-collects.
func (h *Handle[V]) bufTruncate(key uint64) {
	n := len(h.buf)
	for n > h.bufPos && h.buf[n-1].Key > key {
		n--
	}
	if n == len(h.buf) {
		return
	}
	h.BufFlushes.Add(1)
	clear(h.buf[n:])
	h.buf = h.buf[:n]
}

// bufValid re-validates the anchor before the buffer serves a pop or a
// peek: a shared publication since the fill voids the fill-time bounds, so
// the buffer is flushed and reported invalid.
func (h *Handle[V]) bufValid() bool {
	if h.q.cfg.Mode == DistOnly || h.q.shared.PtrIs(h.bufAnchor) {
		return true
	}
	h.bufInvalidate()
	return false
}

// bufRefill rebuilds the buffer from both sides in one pass: shared window
// candidates via FillCandidates (which also supplies the anchor and the
// shared-side cap) and DistLSM minima via FillMin (which supplies the local
// guard). The merged entries are sorted ascending and truncated at the
// combined cap, so every surviving entry is provably poppable while the
// anchor holds. Reports whether any entries were buffered.
func (h *Handle[V]) bufRefill() bool {
	h.bufInvalidate()
	max := delBufSize
	if h.fillHint > max {
		max = min(h.fillHint, maxDrainFill)
	}
	capKey := ^uint64(0)
	if h.q.cfg.Mode != DistOnly {
		h.buf, h.bufAnchor, capKey = h.q.shared.FillCandidates(h.cursor, h.buf[:0], max)
	}
	// Small fills spread their budget across blocks (delBufPerBlock);
	// drain-sized fills must not — after an InsertBatch published one big
	// block, an 8-entry allowance would put the guard at that block's 9th
	// key and truncate the whole fill to it.
	perBlock := delBufPerBlock
	if max > delBufSize {
		perBlock = max
	}
	var guard uint64
	h.buf, guard = h.dist.FillMin(h.buf, perBlock, capKey)
	if guard < capKey {
		capKey = guard
	}
	slices.SortFunc(h.buf, func(a, b item.Snap[V]) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		default:
			return 0
		}
	})
	// Truncate at the combined cap: shared entries above the dist guard
	// could skip a smaller local key, dist entries above the shared cap
	// could skip smaller shared keys. (Window entries dropped here were
	// consumed; the window's dirty rebuild recovers them.)
	n := len(h.buf)
	for n > 0 && h.buf[n-1].Key > capKey {
		n--
	}
	clear(h.buf[n:])
	h.buf = h.buf[:n]
	h.bufCapKey = capKey
	if n == 0 {
		return false
	}
	h.BufFills.Add(1)
	return true
}

// bufPeek returns the next live buffered candidate without consuming it, so
// PeekMin observes exactly the entry the next buffered pop would claim.
// Stale entries (taken elsewhere since the fill) are skipped destructively,
// and with a Drop callback, filter-positive entries are claimed and
// discarded in passing — identical to what the next pop would do — so the
// surviving head is a key TryDeleteMin can actually return. A false return
// means the buffer cannot serve (empty or invalidated); the caller decides
// whether to refill.
func (h *Handle[V]) bufPeek() (item.Snap[V], bool) {
	drop := h.q.cfg.Drop
	for h.bufPos < len(h.buf) {
		if !h.bufValid() {
			return item.Snap[V]{}, false
		}
		e := h.buf[h.bufPos]
		if e.It.Version() == e.Ver {
			if drop == nil || !drop(e.It.Key(), e.It.Value()) {
				return e, true
			}
			if e.It.TryTakeAt(e.Ver) {
				h.deleted.Add(1)
			}
		}
		h.buf[h.bufPos] = item.Snap[V]{}
		h.bufPos++
	}
	return item.Snap[V]{}, false
}

// bufTryDelete pops buffered candidates at or below bound until one take
// succeeds, skipping entries taken elsewhere and, with a Drop callback,
// discarding dropped items; an empty buffer is refilled first. hit is false
// when the buffer cannot serve: the refill found nothing, a shared
// publication moved the anchor (the buffer is flushed, the caller falls back
// to take, and the next call refills), or the head is above the bound (the
// buffer pops ascending, so no buffered candidate qualifies; the head stays
// for a later pop). The unbounded pop passes ^0.
func (h *Handle[V]) bufTryDelete(bound uint64) (key uint64, value V, seq uint64, hit bool) {
	drop := h.q.cfg.Drop
	for {
		if (h.bufPos == len(h.buf) && !h.bufRefill()) || !h.bufValid() || h.buf[h.bufPos].Key > bound {
			var zero V
			return 0, zero, 0, false
		}
		e := h.buf[h.bufPos]
		h.buf[h.bufPos] = item.Snap[V]{}
		h.bufPos++
		if e.It.TryTakeAt(e.Ver) {
			h.deleted.Add(1)
			h.BufPops.Add(1)
			if drop == nil || !drop(e.It.Key(), e.It.Value()) {
				return e.It.Key(), e.It.Value(), e.It.Seq(), true
			}
		}
	}
}
