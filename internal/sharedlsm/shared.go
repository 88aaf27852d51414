package sharedlsm

import (
	"sync"
	"sync/atomic"

	"klsm/internal/block"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

// sharedLimboCap bounds the limbo's dropped-but-not-yet-reusable blocks and
// its runs, and sharedOwedCap its obligations. An idle cursor's stamp can
// hold the limbo back without bound, so it needs the caps. Blocks past the
// cap are abandoned to the garbage collector (the Go backstop §4.4's C++
// original lacks), which costs only the reuse of their shells: each was a
// transfer donor and owes nothing. Runs past the cap fold together
// (block.Limbo.Add), so they wait longer but still release; only
// obligations past sharedOwedCap are abandoned, leaking their item
// references, counted in LimboLeaked.
const (
	sharedLimboCap = 2048
	sharedOwedCap  = 1 << 20
)

// stickyOps bounds how many consecutive skip-shared decisions a cursor may
// re-validate across shared publications (the MultiQueue-style sticky hint,
// see SkipShared).
const stickyOps = 64

// Shared is the shared k-LSM priority queue (Listing 3): one atomic pointer
// to the current BlockArray, updated copy-on-write.
//
// Memory reclamation (§4.4): the paper stamps the shared pointer with
// truncated version numbers to defeat ABA under manual reuse; under Go's GC
// the raw pointer CAS is ABA-safe, but recycling the blocks of superseded
// arrays still needs a proof that no thread reads them. That proof is the
// queue's epoch domain (block.Domain), which every cursor's pool record
// belongs to. Every cursor stamps its record with the current epoch before
// loading the shared pointer, so any block a cursor can ever reach lives in
// an array it loaded at-or-after its stamp. A winning CAS bumps the epoch to
// E and parks the blocks it drops, and the item references its transfers
// left over (obligations), in the limbo tagged E; they recycle and release
// once every other cursor's stamp, and every reader pin (a meld reads the
// shared pointer under a pin, not a stamp), has reached E. Records that
// announce nothing pin nothing. The shared k-LSM only ever holds blocks no
// DistLSM published, each with references of its own (see Insert), so the
// DistLSM's readers never touch what this limbo releases.
type Shared[V any] struct {
	ptr atomic.Pointer[BlockArray[V]]
	// k is the relaxation parameter. It is atomic because the paper allows
	// reconfiguring k at run time (§1); each BlockArray snapshot carries
	// the k its pivots were computed with, so a change takes effect on the
	// next snapshot mutation.
	k    atomic.Int64
	drop block.DropFunc[V]
	// localOrdering enables the Bloom-filter check that guarantees a handle
	// never skips its own items. On by default; the ablation benchmark
	// switches it off.
	localOrdering bool

	// limbo holds dropped published blocks, and obligations, awaiting the
	// epoch horizon. limboMu is only ever TryLock'ed on the operation paths:
	// on contention the winner parks its entries on its own cursor (pending)
	// instead of blocking, preserving lock-freedom, and retries on its next
	// push.
	limboMu sync.Mutex
	limbo   block.Limbo[V]
	// limboLeaked counts obligations dropped to the GC at the limbo cap —
	// the one escape that leaks item references.
	limboLeaked atomic.Int64
}

// New returns an empty shared k-LSM with relaxation parameter k >= 0.
func New[V any](k int, localOrdering bool) *Shared[V] {
	if k < 0 {
		panic("sharedlsm: negative k")
	}
	s := &Shared[V]{localOrdering: localOrdering}
	s.k.Store(int64(k))
	return s
}

// SetDrop installs the lazy-deletion callback used during merges. Must be
// called before the queue is shared.
func (s *Shared[V]) SetDrop(drop block.DropFunc[V]) { s.drop = drop }

// K returns the current relaxation parameter.
func (s *Shared[V]) K() int { return int(s.k.Load()) }

// SetK changes the relaxation parameter at run time (paper §1). Snapshots
// taken before the change keep their old pivot sets, so the new bound takes
// full effect once in-flight snapshots are superseded.
func (s *Shared[V]) SetK(k int) {
	if k < 0 {
		panic("sharedlsm: negative k")
	}
	s.k.Store(int64(k))
}

// Cursor carries one handle's thread-local view (the paper's thread_local
// observed/snapshot pointers) plus its RNG and identity. A Cursor must only
// be used by its owning goroutine.
type Cursor[V any] struct {
	observed *BlockArray[V]
	snapshot *BlockArray[V]
	id       uint64
	rng      *xrand.Source

	// rec is the handle's record, shared with its pool: its stamp is the
	// epoch pin — every array this cursor may still read was loaded from
	// the shared pointer at-or-after it. Advanced on every refresh (the only
	// point where old references are dropped).
	rec *block.Record
	// al is the §4.4 recycling context.
	al alloc[V]
	// pending holds the blocks and obligations this cursor's wins retired
	// but could not hand to the limbo because limboMu was contended;
	// dropped is retireDropped's scratch list. Owner-only; flushed on the
	// next refresh, push, or explicit drain, so a contended retire defers
	// reclamation instead of leaking it.
	pending block.Limbo[V]
	dropped []*block.Block[V]
	// spare is a superseded, never-published snapshot shell whose slices
	// the next refresh reuses.
	spare *BlockArray[V]

	// win is the cached candidate window; gen counts snapshot replacements
	// and in-place snapshot mutations, invalidating the window. Owner-only.
	win candWindow[V]
	gen uint64
	// hintArr/hintKey record the shared array and candidate key of the last
	// successful FindMin. While the shared pointer still equals hintArr,
	// hintKey lower-bounds both the count argument of the ρ bound (at most
	// k live keys in the shared structure are smaller) and the minima of
	// every block that may hold this handle's items — so a caller whose
	// local minimum is <= hintKey may skip the shared side entirely (see
	// SkipShared). Owner-only.
	hintArr *BlockArray[V]
	hintKey uint64
	// hintStreak counts consecutive sticky re-validations (SkipShared skips
	// granted across a publication); reset whenever the shared side is
	// actually queried or a re-validation fails, so stickiness cannot starve
	// the shared structure of maintenance. Owner-only.
	hintStreak int

	// ConsolidatePushes counts published consolidations, for the ablation
	// benchmarks. Atomic so diagnostics can read counters concurrently.
	ConsolidatePushes atomic.Int64
	// InsertRetries counts failed insert CAS attempts; each is followed by
	// a splice or, when the splice is void (VoidSplices), a redo.
	InsertRetries atomic.Int64
	VoidSplices   atomic.Int64
	// MergeSlots counts the item slots this cursor's merges and copies
	// read, and DiscardedSlots the part of them read by attempts whose
	// results were thrown away. Added once per attempt.
	MergeSlots     atomic.Int64
	DiscardedSlots atomic.Int64
	// WindowBuilds counts full candidate-window materializations,
	// WindowRepairs incremental ones, and WindowItems the total candidate
	// entries materialized by either — the per-delete window cost the E14
	// regression flagged at large k. The regression test guarding that cost
	// reads these.
	WindowBuilds  atomic.Int64
	WindowRepairs atomic.Int64
	WindowItems   atomic.Int64
	// HintSkips counts shared-side queries skipped on a valid hint
	// (exact-pointer or sticky); HintSticks counts the sticky subset, where
	// the skip was granted by minimum-key re-validation across a
	// publication rather than pointer equality.
	HintSkips  atomic.Int64
	HintSticks atomic.Int64
}

// NewCursor returns a cursor for handle id, drawing its blocks from the
// owning handle's pool (§4.4) and stamping the pool's record. id must be
// nonzero and unique among the cursors of s: it is the cursor's Bloom
// ownership mark and its reservation token. The records of every cursor of
// s, and of every reader of its blocks, must belong to one epoch domain,
// which the owner registers and withdraws them in; a closing cursor hands
// its parked entries over with DrainRetired first.
func (s *Shared[V]) NewCursor(id uint64, rng *xrand.Source, pool *block.Pool[V]) *Cursor[V] {
	return &Cursor[V]{id: id, rng: rng, rec: pool.Record(), al: alloc[V]{pool: pool, token: id}}
}

// discard abandons c's current attempt (alloc.discard) and counts the
// slots it read as wasted.
func (c *Cursor[V]) discard() {
	if n := c.al.discard(); n > 0 {
		c.MergeSlots.Add(n)
		c.DiscardedSlots.Add(n)
	}
}

// unwind runs deferred by every operation that reserves blocks. On a normal
// return the attempt was committed or discarded already; if a Drop callback
// panicked mid-attempt, it discards the attempt, so no reservation outlives
// the operation, and makes c's next operation refresh, since its snapshot
// may reference blocks the discard recycled.
func (s *Shared[V]) unwind(c *Cursor[V]) {
	if len(c.al.held)+len(c.al.fresh) == 0 {
		return
	}
	c.discard()
	c.observed, c.snapshot = nil, nil
	c.gen++
}

// refresh re-reads the shared pointer and takes a private snapshot
// (Listing 3's refresh_snapshot). The epoch stamp is advanced first —
// before the pointer load, so the pin provably covers everything the new
// snapshot can reach — and the blocks, obligations and reservations of a
// failed previous attempt are discarded here, since the retry abandons
// them.
func (s *Shared[V]) refresh(c *Cursor[V]) {
	c.discard()
	if prev := c.snapshot; prev != nil && !prev.published {
		c.spare = prev
	}
	// Retry handing parked retired blocks to the limbo list (a previous
	// flush lost the TryLock race); cheap no-op when nothing is parked.
	s.flushPending(c)
	// The snapshot is about to be replaced (possibly by a recycled shell at
	// the same address): invalidate the candidate window.
	c.gen++
	c.rec.Stamp()
	c.observed = s.ptr.Load()
	if c.observed == nil {
		c.snapshot = nil
	} else {
		shell := c.takeShell()
		c.observed.copyInto(shell)
		// Pick up run-time k changes: the next pivot recalculation on this
		// snapshot uses the current parameter.
		shell.k = s.K()
		c.snapshot = shell
	}
}

// stale reports whether c must refresh before using its snapshot: the
// shared pointer moved since c observed it, or c's snapshot is an array c
// published itself. The second case matters because the pointer can return
// to a value c observed — nil, whenever the structure empties — and c would
// otherwise consolidate, and even re-publish, an array other cursors may
// still be copying: a published array is never written again.
func (s *Shared[V]) stale(c *Cursor[V]) bool {
	return s.ptr.Load() != c.observed || (c.snapshot != nil && c.snapshot.published)
}

// takeShell returns a private snapshot shell, reusing the spare one (a
// superseded never-published snapshot) when available. The caller resets or
// overwrites its contents.
func (c *Cursor[V]) takeShell() *BlockArray[V] {
	shell := c.spare
	c.spare = nil
	if shell == nil {
		shell = newBlockArray[V](0)
	}
	return shell
}

// push attempts to publish the cursor's snapshot (Listing 3's
// push_snapshot). After success the cursor's observed pointer is stale by
// design: the next operation re-snapshots before mutating, so a published
// array is never written again.
//
// A winning CAS commits the attempt's reference transfer (§4.4): the fresh
// blocks it published already own one reference per slot — their
// bookkeeping was final before the CAS, since another cursor may merge
// them the moment it lands — so the win costs no refcount traffic. The
// reservations on the blocks the new array kept are cleared; the blocks
// the transition dropped, still reserved, and the attempt's obligations are
// handed to the reclamation scheme (retireDropped). A failed CAS leaves the
// attempt whole, for the caller to splice or discard: no donor was written
// but its reservation word, so nothing needs undoing.
func (s *Shared[V]) push(c *Cursor[V]) bool {
	if c.snapshot != nil {
		c.snapshot.published = true
	}
	if !s.ptr.CompareAndSwap(c.observed, c.snapshot) {
		if c.snapshot != nil {
			c.snapshot.published = false
		}
		return false
	}
	if n := c.al.commit(c.snapshot); n > 0 {
		c.MergeSlots.Add(n)
	}
	s.retireDropped(c)
	return true
}

// retireDropped runs on the winner's goroutine right after its CAS. It
// parks every block of the superseded array that the winning snapshot no
// longer references, and the attempt's obligations, on the cursor, tagged
// with a bumped epoch — taken after the CAS, the store that unlinked them —
// and tries to flush them to the limbo and drain.
func (s *Shared[V]) retireDropped(c *Cursor[V]) {
	old, won := c.observed, c.snapshot
	if old == nil && len(c.al.owed) == 0 {
		return
	}
	if old != nil {
		for _, b := range old.blocks {
			if won == nil || !containsBlock(won.blocks, b) {
				c.dropped = append(c.dropped, b)
			}
		}
	}
	c.pending.Add(c.rec.Domain().Bump(), c.dropped, c.al.owed, sharedLimboCap)
	clear(c.dropped)
	c.dropped = c.dropped[:0]
	c.al.owed = block.Reuse(c.al.owed)
	s.flushPending(c)
}

// flushPending tries to move the cursor's pending entries into the limbo
// and drain what every announcement has passed. TryLock keeps the
// operation paths lock-free: on contention the entries simply stay parked
// on the cursor (owner-only) until the next attempt.
func (s *Shared[V]) flushPending(c *Cursor[V]) {
	if c.pending.Empty() || !s.limboMu.TryLock() {
		return
	}
	s.drainLocked(c)
	s.limboMu.Unlock()
}

// drainLocked moves c's pending entries into the limbo up to its caps
// (overflow falls to the GC, obligations counted in LimboLeaked), then
// recycles into c's pool every limbo block, and releases every obligation,
// whose tag every reader pin and every other cursor's stamp has reached. c
// itself is skipped: it provably re-reads the shared pointer before
// touching any block again. Blocks release nothing: each was a transfer
// donor. Caller holds limboMu.
func (s *Shared[V]) drainLocked(c *Cursor[V]) {
	s.limboLeaked.Add(s.limbo.Take(&c.pending, sharedLimboCap, sharedOwedCap, sharedLimboCap))
	if !s.limbo.Empty() {
		s.limbo.Release(c.rec.Domain().Horizon(c.rec, true), c.al.pool, true)
	}
}

// containsBlock reports whether blocks contains b (arrays are short).
func containsBlock[V any](blocks []*block.Block[V], b *block.Block[V]) bool {
	for _, x := range blocks {
		if x == b {
			return true
		}
	}
	return false
}

// Insert publishes a block of items: refresh, insert nb into the snapshot
// (its merge cascade reserving every published block it consumes), then
// CAS. A lost CAS means another thread published first (lock-freedom:
// someone always progresses); Insert then splices its finished merges onto
// the array that won and retries the CAS, and only when the splice is void
// does it discard the cascade and redo it from a fresh snapshot.
//
// Ownership of nb, and of any item references it holds, transfers to the
// shared structure on entry; the references it lacks are acquired here
// (§4.4 proper). A caller that still reaches nb's items through a structure
// of its own — the DistLSM, whose merged-away blocks stay published until
// its size store — keeps its references and hands nb over bare
// (block.Disown), so the shared k-LSM only ever releases references of its
// own. If the winning attempt merged nb away, nb's references moved on like
// any donor's and its shell, which never left this cursor, recycles here.
func (s *Shared[V]) Insert(c *Cursor[V], nb *block.Block[V]) {
	if nb == nil || nb.Empty() {
		return
	}
	nb.AcquireRefs()
	defer s.unwind(c)
	s.refresh(c)
	s.build(c, nb)
	s.publish(c, nb)
}

// build inserts nb into c's fresh snapshot (an empty one when the shared
// structure is empty). Everything, nb included, may be consumed by the drop
// callback or concurrent deletion; the empty state publishes as nil.
func (s *Shared[V]) build(c *Cursor[V], nb *block.Block[V]) {
	if c.snapshot == nil {
		c.snapshot = c.emptyShell(s.K())
	}
	c.snapshot.insert(nb, s.drop, &c.al)
	c.settleEmpty()
}

// publish pushes c's Insert attempt for nb until a CAS wins, splicing
// after each lost one and redoing the attempt when the splice is void, then
// recycles nb's shell if the winning array merged it away.
func (s *Shared[V]) publish(c *Cursor[V], nb *block.Block[V]) {
	for !s.push(c) {
		c.InsertRetries.Add(1)
		if !s.splice(c) {
			s.refresh(c)
			s.build(c, nb)
		}
	}
	if c.snapshot == nil || !containsBlock(c.snapshot.blocks, nb) {
		nb.Donate()
		c.al.pool.Put(nb)
	}
}

// emptyShell returns a private snapshot shell holding no block.
func (c *Cursor[V]) emptyShell(k int) *BlockArray[V] {
	shell := c.takeShell()
	shell.blocks = shell.blocks[:0]
	shell.pivots = shell.pivots[:0]
	shell.published = false
	shell.k = k
	return shell
}

// settleEmpty replaces an emptied snapshot with nil, the published form of
// the empty structure, keeping its shell for reuse.
func (c *Cursor[V]) settleEmpty() {
	if c.snapshot == nil || !c.snapshot.empty() {
		return
	}
	if !c.snapshot.published {
		c.spare = c.snapshot
	}
	c.snapshot = nil
}

// splice re-bases c's Insert attempt, whose push just lost, onto the array
// that beat it, instead of redoing its merges. Its donors D are the blocks
// of the observed array the lost snapshot no longer holds, its results R
// the blocks the lost snapshot added. If every donor is still published,
// and still reserved by c, the new snapshot is the published array without
// D, plus R at their level positions, consolidated with fresh pivots: the
// pass merges only what the winner's publication newly collides with, and
// the attempt's fresh blocks, obligations and reservations carry over to
// the next push. The reservation check is the ABA guard: Pool.Put clears
// the word, so a donor recycled and republished fails it. Reports false,
// with nothing changed, when the splice is void.
func (s *Shared[V]) splice(c *Cursor[V]) bool {
	old, lost := c.observed, c.snapshot
	c.rec.Stamp()
	cur := s.ptr.Load()
	donor := func(b *block.Block[V]) bool {
		return old != nil && containsBlock(old.blocks, b) && (lost == nil || !containsBlock(lost.blocks, b))
	}
	if old != nil {
		for _, b := range old.blocks {
			if donor(b) && (cur == nil || !containsBlock(cur.blocks, b) || b.Reserver() != c.al.token) {
				c.VoidSplices.Add(1)
				return false
			}
		}
	}
	next := c.emptyShell(s.K())
	if cur != nil {
		for i, b := range cur.blocks {
			if !donor(b) {
				next.blocks = append(next.blocks, b)
				next.pivots = append(next.pivots, cur.pivots[i])
			}
		}
	}
	if lost != nil {
		for _, b := range lost.blocks {
			if old == nil || !containsBlock(old.blocks, b) {
				next.place(b, b.Filled())
			}
		}
		c.spare = lost
	}
	c.gen++ // the snapshot is replaced: invalidate the window
	c.observed, c.snapshot = cur, next
	next.consolidate(s.drop, true, &c.al)
	c.settleEmpty()
	return true
}

// FindMin returns a live item that is one of the k+1 smallest keys in the
// shared k-LSM, or nil if the queue is (relaxed-)empty. The item is not
// taken; callers race on item.TryTake and call FindMin again on failure.
// New callers should prefer FindMinSnap, whose version-stamped result stays
// claimable (TryTakeAt) even for window entries retained across snapshots.
func (s *Shared[V]) FindMin(c *Cursor[V]) *item.Item[V] {
	e, ok := s.FindMinSnap(c)
	if !ok {
		return nil
	}
	return e.It
}

// syncWindow brings c's candidate window up to date with its snapshot state,
// preferring an incremental repair over a full rebuild, and maintains the
// window cost counters. Caller guarantees c.snapshot != nil.
func (s *Shared[V]) syncWindow(c *Cursor[V], localID int64) {
	if c.win.snap == c.snapshot && c.win.gen == c.gen {
		return
	}
	mat, full := c.win.sync(c.snapshot, c.gen, localID, false)
	if full {
		c.WindowBuilds.Add(1)
	} else {
		c.WindowRepairs.Add(1)
	}
	c.WindowItems.Add(int64(mat))
}

// localID returns the Bloom-filter identity FindMin enforces local ordering
// with, or -1 when local ordering is off.
func (s *Shared[V]) localID(c *Cursor[V]) int64 {
	if s.localOrdering {
		return int64(c.id)
	}
	return -1
}

// FindMinSnap is FindMin returning a version-stamped reference: callers
// claim the result with It.TryTakeAt(Ver), which fails — instead of deleting
// a different incarnation — if the item was taken (and possibly recycled)
// since the window captured it. ok is false when the queue is
// (relaxed-)empty.
//
// This is Listing 3's find_min loop: stale candidates trigger consolidation
// of the private snapshot, and structural changes are pushed so other
// threads benefit from the cleanup. The paper's per-call pivot-range draw
// and Bloom scan are replaced by draws from the cursor's candidate window,
// which is repaired incrementally when the snapshot state changes and
// rebuilt in full only when entries may have been stranded (see
// candWindow).
func (s *Shared[V]) FindMinSnap(c *Cursor[V]) (item.Snap[V], bool) {
	for {
		if s.stale(c) {
			s.refresh(c)
		}
		if c.snapshot == nil {
			return item.Snap[V]{}, false
		}
		localID := s.localID(c)
		dry := false
		s.syncWindow(c, localID)
		// Only a window-backed candidate may be returned: the local-ordering
		// overlay competes *downward* against it, so the result's key is <=
		// the window entry's key <= pivot and the k+1 bound holds. When the
		// window runs dry, an overlay-only block minimum would bound nothing
		// — arbitrarily many smaller live keys can sit in other blocks — so
		// fall through to the consolidation below (dry forces the pivot
		// recalculation), which extends the window. (Returning the
		// overlay-only minimum here was a genuine relaxation violation,
		// caught by the k-bound quality suite at k=0.)
		if e, ok := c.win.next(c.rng); ok {
			e = c.win.localOverlay(e)
			if e.Ver&1 == 0 {
				// Record the skip-shared hint: e.Key <= the drawn entry's key
				// <= pivot (so at most k live shared keys are smaller) and <=
				// every Bloom-matching block minimum (so skipping cannot
				// violate local ordering). A real query ran, so the sticky
				// streak restarts.
				c.hintArr, c.hintKey = c.observed, e.Key
				c.hintStreak = 0
				return e, true
			}
			// Overlay handed back a taken block minimum: the block's live
			// minimum may undercut every candidate — consolidate.
		} else if c.win.dirty {
			// The window ran dry but entries were consumed unclaimed or
			// stranded since the last full build; they are still live in the
			// blocks, so rebuild before concluding exhaustion.
			mat, _ := c.win.sync(c.snapshot, c.gen, localID, true)
			c.WindowBuilds.Add(1)
			c.WindowItems.Add(int64(mat))
			continue
		} else {
			dry = true
		}
		// Candidate stale (or no candidates): clean up. When the candidate
		// set is exhausted (dry), pivots must be recalculated to extend it;
		// for a merely-stale candidate the recalculation is only worth it
		// if the pass changes the structure (consolidate decides). A dry
		// pass that leaves only empty blocks other attempts reserved finds
		// the structure empty.
		if s.consolidate(c, dry) && dry {
			return item.Snap[V]{}, false
		}
	}
}

// consolidate runs Listing 3's cleanup pass on c's private snapshot,
// recalculating the pivots when repivot is set, and publishes the result
// when the pass changed the structure or emptied it. A pass that changed
// nothing keeps the snapshot and clears the reservations it took; a pass
// whose push loses is discarded, reservations and all. Whatever the CAS
// outcome, c's next use refreshes: either c published (its observed
// pointer is stale now) or another cursor did (the shared pointer moved).
// It reports whether the snapshot is left holding nothing but empty blocks
// another attempt reserved, which c may not drop. Caller guarantees
// c.snapshot != nil.
func (s *Shared[V]) consolidate(c *Cursor[V], repivot bool) (drained bool) {
	defer s.unwind(c)
	c.gen++ // the pass mutates the snapshot in place: invalidate the window
	push := c.snapshot.consolidate(s.drop, repivot, &c.al)
	if c.snapshot.empty() {
		c.settleEmpty()
		push = true
	}
	switch {
	case !push:
		c.al.unreserve()
		return c.snapshot.drained()
	case s.push(c):
		c.ConsolidatePushes.Add(1)
	default:
		c.discard()
	}
	return false
}

// Purge physically removes drop-filtered items from the shared structure:
// each snapshot block whose contents the filter (or logical deletion)
// touches is replaced by a CopyDropIn copy, the snapshot is consolidated
// with a pivot recalculation, and the result is pushed. Ordinary
// consolidation applies the filter only on level-collision merges, so a
// large high-level block full of filter-positive items can otherwise sit
// untouched indefinitely — Purge is the explicit compaction pass that
// reclaims it. The same holds without a filter for items deleted out of
// key order (core.Queue.Delete), which shrinks never trim.
//
// Reference safety mirrors FindMinSnap's consolidate path: the cursor's
// epoch stamp (taken in refresh before the pointer load) pins every block
// the snapshot can reach, and the copies take over their originals'
// references by transfer, the items the filter claims becoming the winning
// push's obligations. Items claimed during a failed CAS attempt stay
// claimed; they are filter-positive garbage either way and remain owned by
// the still-published originals. Blocks another attempt has reserved are
// skipped: that attempt consumes them.
func (s *Shared[V]) Purge(c *Cursor[V]) {
	defer s.unwind(c)
	for {
		s.refresh(c)
		if c.snapshot == nil {
			return
		}
		a := c.snapshot
		pool := c.al.pool
		for i, b := range a.blocks {
			if b.Empty() || !c.al.reserve(b) {
				continue
			}
			owed := len(c.al.owed)
			c.al.slots += int64(b.Filled())
			nb := b.CopyTransferIn(pool, b.Level(), s.drop, &c.al.owed)
			if nb.Filled() == b.Filled() {
				// Nothing dropped or dead in this block: keep the original,
				// which keeps its references, and forget what the copy
				// recorded.
				clear(c.al.owed[owed:])
				c.al.owed = c.al.owed[:owed]
				nb.Donate()
				pool.Put(nb)
				continue
			}
			c.al.note(nb)
			a.blocks[i] = nb
		}
		c.gen++ // the snapshot was mutated in place: invalidate the window
		a.consolidate(s.drop, true, &c.al)
		c.settleEmpty()
		if s.push(c) {
			return
		}
		// Lost the publication race: refresh and retry with the new array.
	}
}

// FillCandidates moves up to max candidates into dst for a per-handle
// deletion buffer: random window draws below the overlay bound (consumed
// from the window without being taken) plus the ascending live prefixes of
// the caller's own Bloom-matching blocks (left in place; pop-time version
// checks discard the window duplicates). On return with a non-empty append
// or a usable bound, anchor is the published array the entries were drawn
// under and capKey a key such that, while the shared pointer still equals
// anchor, (a) at most k live keys in the shared structure are below capKey
// and (b) every live key below capKey in a Bloom-matching block of the
// caller is itself among the appended entries. Entries may exceed capKey
// (the local guard can land below the pivot after the fill); the caller
// must drop those, and then ascending pops of the survivors preserve both
// the ρ = T·k bound and local ordering for as long as the anchor holds —
// the buffer must be discarded when it stops holding. anchor is nil (with
// capKey ^0) when the shared structure is empty, which the caller validates
// the same way: the shared pointer still being nil means zero shared keys
// exist.
//
// The entries are *not* taken: a flushed buffer simply discards them, and
// the items remain live in the blocks (the window marks itself dirty so a
// later dry-window rebuild re-materializes them).
func (s *Shared[V]) FillCandidates(c *Cursor[V], dst []item.Snap[V], max int) (_ []item.Snap[V], anchor *BlockArray[V], capKey uint64) {
	base := len(dst)
	repivoted := false
	for {
		if s.stale(c) {
			s.refresh(c)
		}
		if c.snapshot == nil {
			return dst, nil, ^uint64(0)
		}
		localID := s.localID(c)
		s.syncWindow(c, localID)
		ov := c.win.overlayBound()
		pivot := c.snapshot.pivotKey
		hint := pivot
		if ov < hint {
			hint = ov
		}
		blocked := false
		for len(dst)-base < max {
			e, valid := c.win.next(c.rng)
			if !valid {
				break
			}
			if e.Key > ov {
				// An own-block minimum undercuts the entry; drawn candidates
				// above it cannot be buffered directly (a pop could skip the
				// caller's own smaller key) — the local prefix fill below
				// covers that region instead.
				blocked = true
				break
			}
			c.win.consume()
			dst = append(dst, e)
		}
		// Collect the owner's Bloom-matching blocks' ascending live prefixes
		// directly (the draw above admits only keys at or below the single
		// current own minimum, which starves the buffer whenever the minimum
		// is shared-resident). The guard lower-bounds every uncollected local
		// live key, so it replaces the overlay bound as the local-ordering
		// cap: everything local below the cap is in the buffer and ascending
		// pops meet it first.
		var guard uint64
		dst, guard = c.win.fillLocal(dst, max-(len(dst)-base), pivot)
		capKey = pivot
		if guard < capKey {
			capKey = guard
		}
		if len(dst) > base || blocked {
			// A fill is short when it comes under both the request and half
			// the pivot's own capacity (k+1 keys): as deletes consume the
			// keys under the snapshot's pivot, each refill collects fewer
			// entries but nothing ever triggers a pivot recalculation —
			// fills shrink toward one entry and the buffer's amortization
			// collapses. The k/2 cap keeps large drain fills from paying a
			// consolidation for a target no pivot could ever meet.
			short := len(dst)-base < min(max, c.snapshot.k/2+1)
			if !repivoted && short {
				// Discard the partial fill (consumed window draws stay
				// recoverable via the dirty rebuild), recalculate the pivots
				// once, and refill at the extended bound.
				repivoted = true
				dst = dst[:base]
				s.consolidate(c, true)
				continue
			}
			if len(dst) > base {
				// A real query ran: re-arm the skip-shared hint. hint =
				// min(overlay bound, pivot) satisfies both hint guarantees at
				// fill time — at most k live shared keys below it, and no
				// Bloom-matching block minimum below it.
				c.hintArr, c.hintKey = c.observed, hint
				c.hintStreak = 0
			}
			return dst, c.observed, capKey
		}
		// Window dry: run the same maintenance FindMinSnap would, then
		// retry. Stranded entries rebuild first; then consolidation extends
		// the pivot ranges or empties the structure.
		if c.win.dirty {
			mat, _ := c.win.sync(c.snapshot, c.gen, localID, true)
			c.WindowBuilds.Add(1)
			c.WindowItems.Add(int64(mat))
			continue
		}
		if s.consolidate(c, true) {
			// Only empty blocks other attempts reserved are left: zero
			// live shared keys while the pointer holds.
			return dst, c.observed, ^uint64(0)
		}
	}
}

// PtrIs reports whether the published shared pointer currently equals a —
// the validity check for deletion-buffer anchors handed out by
// FillCandidates (nil anchors validate an empty shared structure).
func (s *Shared[V]) PtrIs(a *BlockArray[V]) bool { return s.ptr.Load() == a }

// SkipShared reports whether a caller holding a local candidate with key
// localKey may return it without consulting the shared structure at all.
// The hint is armed by every real shared-side query (FindMinSnap,
// FillCandidates) with the array it ran on and a key that, while the shared
// pointer still equals that array, lower-bounds two things: at most k live
// keys in the shared structure are smaller (the key is within the array's
// pivot range, and a published array only loses items), and no block that
// may contain c's own items has a smaller minimum (block minima only rise as
// tails are taken). So on the same array the skip is granted whenever
// localKey <= hintKey, with no streak budget — both the ρ = T·k bound and
// local ordering hold for the local candidate.
//
// When the pointer has moved, the hint re-validates against the new array's
// minimum-key floor instead of dying: a published array's minKey
// lower-bounds every key it can ever hold, so minKey >= localKey proves the
// shared structure holds *zero* live keys below localKey — the ρ bound
// (0 <= k smaller keys) and local ordering (every own-block minimum >=
// minKey >= localKey) both hold trivially, and the hint re-arms on the new
// array with hintKey = minKey. Such cross-publication re-validations are
// MultiQueue-style stickiness and are bounded by stickyOps, counted per
// consecutive streak; the streak — and, on a failed re-validation, the
// decision — resets so a handle cannot indefinitely avoid the shared-side
// maintenance its deletes are meant to share.
func (s *Shared[V]) SkipShared(c *Cursor[V], localKey uint64) bool {
	if c.hintArr == nil {
		return false
	}
	cur := s.ptr.Load()
	if cur == c.hintArr {
		if localKey <= c.hintKey {
			c.HintSkips.Add(1)
			return true
		}
		return false
	}
	if c.hintStreak >= stickyOps {
		c.hintStreak = 0
		return false
	}
	if cur == nil {
		// The shared structure emptied: zero shared keys, skip trivially
		// valid. The hint cannot re-arm on nil; keep the old one so the next
		// call re-validates against whatever is published then.
		c.hintStreak++
		c.HintSkips.Add(1)
		c.HintSticks.Add(1)
		return true
	}
	if floor := cur.minKey; floor >= localKey {
		c.hintStreak++
		c.HintSkips.Add(1)
		c.HintSticks.Add(1)
		c.hintArr, c.hintKey = cur, floor
		return true
	}
	c.hintStreak = 0
	return false
}

// DrainRetired flushes c's parked entries and drains every limbo entry all
// announcements have passed, blocking on the limbo lock. Intended for the
// close path and for shutdown and test quiesce paths (after restamping
// every cursor's record); the operation paths drain opportunistically
// instead and never block.
func (s *Shared[V]) DrainRetired(c *Cursor[V]) {
	s.limboMu.Lock()
	s.drainLocked(c)
	s.limboMu.Unlock()
}

// LimboLeaked returns the number of obligations dropped to the GC at the
// limbo cap, each leaking its item reference.
func (s *Shared[V]) LimboLeaked() int64 { return s.limboLeaked.Load() }

// LimboLen returns the number of blocks in the limbo, for tests.
func (s *Shared[V]) LimboLen() int {
	s.limboMu.Lock()
	defer s.limboMu.Unlock()
	n, _ := s.limbo.Len()
	return n
}

// Empty reports whether the shared pointer is nil. A false result does not
// guarantee live items exist (they may all be logically deleted); it is a
// fast-path hint only.
func (s *Shared[V]) Empty() bool { return s.ptr.Load() == nil }

// Snapshot returns the current BlockArray for tests and diagnostics; callers
// must treat it as read-only.
func (s *Shared[V]) Snapshot() *BlockArray[V] { return s.ptr.Load() }
