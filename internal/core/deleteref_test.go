package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"klsm/internal/xrand"
)

// TestCompactReclaimsTakenWithoutFilter: on a queue with no Drop filter,
// Compact must still reclaim items taken mid-block. Pops from a second
// handle take items that sit below the minima of the blocks holding them
// (spy copies, shared blocks), which shrinks never trim; only Compact's
// copy pass removes them, so afterwards Footprint equals Size.
func TestCompactReclaimsTakenWithoutFilter(t *testing.T) {
	q := NewQueue(Config[int]{K: 256, Mode: Combined, LocalOrdering: true})
	h1, h2 := q.NewHandle(), q.NewHandle()
	rng := xrand.NewSeeded(5)
	const n = 1 << 16
	for i := 0; i < n; i++ {
		h1.Insert(rng.Uint64(), i)
	}
	for i := 0; i < n/2; i++ {
		if _, _, ok := h2.TryDeleteMin(); !ok {
			t.Fatalf("pop %d failed with %d items queued", i, q.Size())
		}
	}
	h1.Compact()
	h2.Compact()
	if fp, sz := q.FootprintItems(), q.Size(); fp != sz {
		t.Fatalf("after Compact: Footprint %d, Size %d; want every taken item reclaimed", fp, sz)
	}
}

// TestDeleteRefStaleAfterRecycle: a Ref names one incarnation of an item.
// Once the item is popped, reclaimed and reused by a later insert, the old
// Ref must delete nothing, and the new key must still pop.
func TestDeleteRefStaleAfterRecycle(t *testing.T) {
	q := NewQueue(Config[int]{K: 0, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	old := h.InsertRef(7, 70)
	if k, v, ok := h.TryDeleteMin(); !ok || k != 7 || v != 70 {
		t.Fatalf("TryDeleteMin = %d, %d, %v; want 7, 70, true", k, v, ok)
	}
	q.Quiesce()
	if puts := q.ReclaimStats().ItemPuts; puts != 1 {
		t.Fatalf("item releases = %d after Quiesce, want 1", puts)
	}
	cur := h.InsertRef(9, 90)
	if cur.it != old.it {
		t.Fatal("the insert after Quiesce did not reuse the popped item")
	}
	if q.Delete(old) {
		t.Fatal("stale Ref deleted the item's next incarnation")
	}
	if q.Delete(Ref[int]{}) {
		t.Fatal("zero Ref deleted something")
	}
	if sz := q.Size(); sz != 1 {
		t.Fatalf("Size = %d, want 1", sz)
	}
	if k, v, ok := h.TryDeleteMin(); !ok || k != 9 || v != 90 {
		t.Fatalf("TryDeleteMin = %d, %d, %v; want 9, 90, true", k, v, ok)
	}
	if q.Delete(cur) {
		t.Fatal("Delete of a popped item's Ref succeeded")
	}
}

// TestDeleteRefStress races Delete against TryDeleteMin, spies and merges
// on a pooled, reclaiming queue. Workers insert with InsertRef and later
// delete random Refs of their own, many of them stale by then (popped,
// possibly recycled). Every key must leave exactly once, by a pop or by a
// Delete, never both; after a Compact of every handle and Quiesce, the
// §4.4 ledger must balance: one release per insert, no live item released,
// no limbo leak. Run under -race in CI.
func TestDeleteRefStress(t *testing.T) {
	const (
		workers = 4
		ops     = 30_000
	)
	q := NewQueue(Config[uint64]{K: 128, Mode: Combined, LocalOrdering: true})
	handles := make([]*Handle[uint64], workers)
	for i := range handles {
		handles[i] = q.NewHandle()
	}
	// Values are unique (worker*ops + i), so they identify keys exactly.
	used := make([]bool, workers*ops)
	popped := make([]atomic.Int32, workers*ops)
	deleted := make([]atomic.Int32, workers*ops)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := handles[w]
			rng := xrand.NewSeeded(uint64(w)*2503 + 11)
			var mine []refEntry
			for i := 0; i < ops; i++ {
				// Insert-biased, as in TestReclaimAccountingStress.
				switch r := rng.Intn(5); {
				case r < 3:
					v := uint64(w*ops + i)
					mine = append(mine, refEntry{h.InsertRef(rng.Uint64n(1<<20), v), v})
					used[v] = true
				case r < 4:
					mine = deleteRandom(q, rng, mine, deleted)
				default:
					if _, v, ok := h.TryDeleteMin(); ok {
						popped[v].Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	h := handles[0]
	for misses := 0; q.Size() > 0; {
		if _, v, ok := h.TryDeleteMin(); ok {
			popped[v].Add(1)
			misses = 0
		} else if misses++; misses > 1000 {
			t.Fatalf("Size = %d but TryDeleteMin keeps failing", q.Size())
		}
	}
	inserted, byPop, byDelete := leftOnce(t, used, popped, deleted)

	for _, hh := range handles {
		hh.Compact()
	}
	q.Quiesce()
	rs := q.ReclaimStats()
	t.Logf("inserted=%d popped=%d deleted=%d releases=%d reuses=%d limboLeaked=%d",
		inserted, byPop, byDelete, rs.ItemPuts, rs.ItemReuses, rs.LimboLeaked)
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero (reachability bug)", rs.ItemsLostLive)
	}
	if rs.LimboLeaked != 0 {
		t.Fatalf("%d blocks leaked at a limbo cap", rs.LimboLeaked)
	}
	if rs.ItemPuts != inserted {
		t.Fatalf("item releases = %d, want exactly %d", rs.ItemPuts, inserted)
	}
}

// TestDeleteRefBoundedDrain races Delete against bounded drains, the timer
// pattern: inserters delete half of their own items by Ref while drainers
// pop everything at or below moving bounds, pulling due items out of the
// inserters' local structures (spyDue). Every pop must be at or below its
// bound and carry its own payload, and every item must leave exactly once,
// by a pop or by a Delete, never both; no live item may be released. The
// §4.4 ledger is logged, not asserted: constant due-bounded spying keeps the
// queue's reader guard busy, so owners overflow their limbo caps and drop
// blocks to the GC (LimboLeaked), with or without Delete.
func TestDeleteRefBoundedDrain(t *testing.T) {
	const (
		inserters = 4
		drainers  = 2
		perIns    = 20000
		span      = 1000 // keys fall in [0, span)
		slotMask  = 1<<32 - 1
	)
	n := inserters * perIns
	used := make([]bool, n)
	popped := make([]atomic.Int32, n)
	deleted := make([]atomic.Int32, n)
	q := NewQueue(Config[uint64]{K: 256, Mode: Combined, LocalOrdering: true})

	var bad atomic.Int64
	emitter := func(bound uint64) func(k, v uint64) {
		return func(k, v uint64) {
			if k > bound || k != v>>32 {
				bad.Add(1)
			}
			popped[v&slotMask].Add(1)
		}
	}
	var wg, dwg sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < inserters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			rng := xrand.NewSeeded(uint64(w)*7919 + 5)
			var mine []refEntry
			for i := 0; i < perIns; i++ {
				slot := uint64(w*perIns + i)
				key := rng.Uint64n(span)
				mine = append(mine, refEntry{h.InsertRef(key, key<<32|slot), slot})
				used[slot] = true
				if rng.Intn(2) == 0 {
					mine = deleteRandom(q, rng, mine, deleted)
				}
			}
		}(w)
	}
	for d := 0; d < drainers; d++ {
		dwg.Add(1)
		go func(d int) {
			defer dwg.Done()
			h := q.NewHandle()
			rng := xrand.NewSeeded(uint64(d)*104729 + 13)
			for !done.Load() {
				bound := span/2 + rng.Uint64n(span/2)
				h.DrainMinBounded(bound, 256, emitter(bound))
			}
		}(d)
	}
	wg.Wait()
	done.Store(true)
	dwg.Wait()

	h := q.NewHandle()
	for h.DrainMinBounded(span, 256, emitter(span)) > 0 {
	}
	if b := bad.Load(); b != 0 {
		t.Fatalf("%d pops above their bound or with another item's payload", b)
	}
	inserted, byPop, byDelete := leftOnce(t, used, popped, deleted)
	q.Quiesce()
	rs := q.ReclaimStats()
	t.Logf("inserted=%d popped=%d deleted=%d releases=%d limboLeaked=%d",
		inserted, byPop, byDelete, rs.ItemPuts, rs.LimboLeaked)
	if rs.ItemsLostLive != 0 {
		t.Fatalf("%d live items hit refcount zero (reachability bug)", rs.ItemsLostLive)
	}
}

// refEntry is a stress worker's record of one insert: its Ref and the
// unique value it carries.
type refEntry struct {
	r Ref[uint64]
	v uint64
}

// deleteRandom Deletes a random entry of mine, counting a success against
// its value, and returns mine without it.
func deleteRandom(q *Queue[uint64], rng *xrand.Source, mine []refEntry, deleted []atomic.Int32) []refEntry {
	if len(mine) == 0 {
		return mine
	}
	j := rng.Intn(len(mine))
	if q.Delete(mine[j].r) {
		deleted[mine[j].v].Add(1)
	}
	mine[j] = mine[len(mine)-1]
	return mine[:len(mine)-1]
}

// leftOnce checks that every used value left the queue exactly once, by a
// pop or by a Delete, and every unused one never, and returns the totals.
func leftOnce(t *testing.T, used []bool, popped, deleted []atomic.Int32) (inserted, byPop, byDelete int64) {
	t.Helper()
	for v := range used {
		p, d, want := popped[v].Load(), deleted[v].Load(), int32(0)
		if used[v] {
			want = 1
			inserted++
		}
		if p+d != want {
			t.Fatalf("value %d left %d times by pop and %d by Delete, want %d in all", v, p, d, want)
		}
		byPop += int64(p)
		byDelete += int64(d)
	}
	return inserted, byPop, byDelete
}
