package sharedlsm

import (
	"sort"
	"sync"
	"testing"

	"klsm/internal/block"
	"klsm/internal/item"
	"klsm/internal/xrand"
)

// blockOf builds a private block from keys (sorted descending internally).
func blockOf(keys ...uint64) *block.Block[int] {
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	b := block.New[int](block.LevelForCount(len(sorted)))
	for _, k := range sorted {
		b.Append(item.New(k, 0))
	}
	return b
}

// insertKeys inserts each key as its own block (the k=0 shaped workload),
// tagging the block with the cursor's handle ID as the combined queue's
// DistLSM would.
func insertKeys(s *Shared[int], c *Cursor[int], keys ...uint64) {
	for _, k := range keys {
		b := blockOf(k)
		b.AddOwner(c.id)
		s.Insert(c, b)
	}
}

// deleteMin performs the combined-queue deletion protocol against the shared
// k-LSM only: FindMin + TryTake until success or empty.
func deleteMin(s *Shared[int], c *Cursor[int]) (uint64, bool) {
	for {
		it := s.FindMin(c)
		if it == nil {
			return 0, false
		}
		if it.TryTake() {
			return it.Key(), true
		}
	}
}

// domains gives every Shared under test its own epoch domain, as every
// queue has one: the records of all cursors of one Shared share it.
var domains sync.Map // *Shared[int] -> *block.Domain

// domainOf returns s's epoch domain.
func domainOf(s *Shared[int]) *block.Domain {
	d, _ := domains.LoadOrStore(s, new(block.Domain))
	return d.(*block.Domain)
}

// newCursor returns a cursor drawing from a fresh pool registered in s's
// domain.
func newCursor(s *Shared[int], id uint64) *Cursor[int] {
	return s.NewCursor(id, xrand.NewSeeded(id*2654435761+1), block.NewPool(domainOf(s).Register(), item.NewPool[int]()))
}

func TestEmptySharedLSM(t *testing.T) {
	s := New[int](4, true)
	c := newCursor(s, 1)
	if !s.Empty() {
		t.Fatal("fresh queue not Empty")
	}
	if it := s.FindMin(c); it != nil {
		t.Fatalf("FindMin on empty = %v", it)
	}
}

func TestInsertThenFindMinExactWithKZero(t *testing.T) {
	s := New[int](0, true)
	c := newCursor(s, 1)
	insertKeys(s, c, 5, 3, 9, 1, 7)
	// k = 0: find-min must return the exact minimum.
	want := []uint64{1, 3, 5, 7, 9}
	for _, w := range want {
		k, ok := deleteMin(s, c)
		if !ok || k != w {
			t.Fatalf("got %d (%v), want %d", k, ok, w)
		}
	}
	if _, ok := deleteMin(s, c); ok {
		t.Fatal("delete on drained queue succeeded")
	}
}

func TestBulkBlockInsert(t *testing.T) {
	s := New[int](0, true)
	c := newCursor(s, 1)
	s.Insert(c, blockOf(10, 20, 30, 40))
	s.Insert(c, blockOf(5, 15, 25, 35))
	arr := s.Snapshot()
	if arr == nil || !arr.CheckInvariants() {
		t.Fatal("invariants violated after bulk inserts")
	}
	want := []uint64{5, 10, 15, 20, 25, 30, 35, 40}
	for _, w := range want {
		k, ok := deleteMin(s, c)
		if !ok || k != w {
			t.Fatalf("got %d (%v), want %d", k, ok, w)
		}
	}
}

// TestRelaxationBoundSingleThread verifies Lemma 2 specialized to one
// thread: every delete-min returns a key of rank <= k+1 among live keys.
func TestRelaxationBoundSingleThread(t *testing.T) {
	for _, k := range []int{0, 1, 4, 16, 64} {
		s := New[int](k, true)
		c := newCursor(s, 1)
		src := xrand.NewSeeded(uint64(k) + 7)

		var live []uint64 // kept sorted ascending
		insert := func(key uint64) {
			i := sort.Search(len(live), func(i int) bool { return live[i] >= key })
			live = append(live, 0)
			copy(live[i+1:], live[i:])
			live[i] = key
		}
		for i := 0; i < 300; i++ {
			key := src.Uint64() % 10000
			s.Insert(c, blockOf(key))
			insert(key)
		}
		for len(live) > 0 {
			key, ok := deleteMin(s, c)
			if !ok {
				t.Fatalf("k=%d: queue empty with %d live keys", k, len(live))
			}
			rank := sort.Search(len(live), func(i int) bool { return live[i] >= key })
			if rank > k {
				t.Fatalf("k=%d: returned key %d has rank %d > k", k, key, rank)
			}
			// Remove one occurrence of key.
			i := sort.Search(len(live), func(i int) bool { return live[i] >= key })
			if i == len(live) || live[i] != key {
				t.Fatalf("k=%d: returned key %d not live", k, key)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}
}

// TestLocalOrderingNeverSkipsOwnItems: with local ordering, a handle that
// inserted the global minimum must receive it, even for large k.
func TestLocalOrderingNeverSkipsOwnItems(t *testing.T) {
	s := New[int](1<<20, true) // k so large the random pick is ~arbitrary
	mine := newCursor(s, 1)
	other := newCursor(s, 2)
	// Other handle floods with large keys.
	for i := uint64(0); i < 200; i++ {
		s.Insert(other, blockOf(1000+i))
	}
	// This handle inserts small keys; it must get them back in order.
	insertKeys(s, mine, 5, 3, 8)
	for _, want := range []uint64{3, 5, 8} {
		k, ok := deleteMin(s, mine)
		if !ok || k != want {
			t.Fatalf("local ordering violated: got %d (%v), want %d", k, ok, want)
		}
	}
}

func TestWithoutLocalOrderingStillBounded(t *testing.T) {
	s := New[int](2, false)
	c := newCursor(s, 1)
	insertKeys(s, c, 50, 40, 30, 20, 10)
	// Bound still holds: first deletion returns one of the 3 smallest.
	k, ok := deleteMin(s, c)
	if !ok || k > 30 {
		t.Fatalf("relaxation bound violated without local ordering: %d", k)
	}
}

func TestTwoCursorsSeeEachOthersInserts(t *testing.T) {
	s := New[int](0, true)
	a := newCursor(s, 1)
	b := newCursor(s, 2)
	s.Insert(a, blockOf(7))
	if it := s.FindMin(b); it == nil || it.Key() != 7 {
		t.Fatalf("cursor b sees %v, want key 7", it)
	}
	k, ok := deleteMin(s, b)
	if !ok || k != 7 {
		t.Fatalf("cursor b deleted %d (%v)", k, ok)
	}
	if it := s.FindMin(a); it != nil {
		t.Fatalf("cursor a still sees %v after b drained", it)
	}
}

// TestConcurrentConservation: T goroutines each insert n disjoint keys and
// then the group drains the queue; every key must be extracted exactly once.
func TestConcurrentConservation(t *testing.T) {
	const workers = 8
	n := 3000
	if testing.Short() {
		n = 500
	}
	for _, k := range []int{0, 4, 256} {
		s := New[int](k, true)
		var wg sync.WaitGroup
		extracted := make([][]uint64, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				c := newCursor(s, uint64(id+1))
				base := uint64(id * n)
				for i := 0; i < n; i++ {
					s.Insert(c, blockOf(base+uint64(i)))
				}
				for {
					key, ok := deleteMin(s, c)
					if !ok {
						return
					}
					extracted[id] = append(extracted[id], key)
				}
			}(w)
		}
		wg.Wait()
		seen := make(map[uint64]int)
		total := 0
		for _, keys := range extracted {
			for _, key := range keys {
				seen[key]++
				total += 1
			}
		}
		if total != workers*n {
			t.Fatalf("k=%d: extracted %d keys, want %d", k, total, workers*n)
		}
		for key, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("k=%d: key %d extracted %d times", k, key, cnt)
			}
		}
	}
}

func TestInsertEmptyBlockNoop(t *testing.T) {
	s := New[int](4, true)
	c := newCursor(s, 1)
	s.Insert(c, block.New[int](0))
	s.Insert(c, nil)
	if !s.Empty() {
		t.Fatal("inserting empty/nil block changed the queue")
	}
}

func TestDropCallbackDuringConsolidate(t *testing.T) {
	s := New[int](0, true)
	stale := map[uint64]bool{20: true, 40: true}
	s.SetDrop(func(key uint64, _ int) bool { return stale[key] })
	c := newCursor(s, 1)
	insertKeys(s, c, 10, 20, 30, 40, 50)
	var got []uint64
	for {
		k, ok := deleteMin(s, c)
		if !ok {
			break
		}
		got = append(got, k)
	}
	for _, k := range got {
		if stale[k] {
			t.Fatalf("stale key %d returned", k)
		}
	}
	// 10, 30, 50 must all come out (drop applies only during merges, so some
	// stale keys may be returned... no: they were inserted as single blocks
	// and merged at insert time, where drop runs).
	if len(got) != 3 || got[0] != 10 || got[1] != 30 || got[2] != 50 {
		t.Fatalf("got %v, want [10 30 50]", got)
	}
}

func BenchmarkSharedInsertK256(b *testing.B) {
	s := New[struct{}](256, true)
	p := block.NewPool(new(block.Domain).Register(), item.NewPool[struct{}]())
	c := s.NewCursor(1, xrand.NewSeeded(1), p)
	src := xrand.NewSeeded(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := p.Get(0)
		blk.Append(item.New(src.Uint64(), struct{}{}))
		s.Insert(c, blk)
	}
}

// TestPublishedSnapshotNeverReused guards against an ABA on the empty
// shared pointer. A cursor that published an array into an empty structure
// still observes nil; once another cursor empties the structure again, the
// pointer equals that observation. FindMin must refresh anyway: otherwise it
// consolidates the published array in place — while other cursors may
// still be copying it — and may push it again.
func TestPublishedSnapshotNeverReused(t *testing.T) {
	s := New[int](4, true)
	c1, c2 := newCursor(s, 1), newCursor(s, 2)
	insertKeys(s, c1, 5) // c1 observed nil and published the array
	pub := s.Snapshot()
	if pub == nil || len(pub.blocks) != 1 {
		t.Fatalf("published array after insert = %+v", pub)
	}
	if _, ok := deleteMin(s, c2); !ok {
		t.Fatal("c2 found no key to delete")
	}
	if _, ok := deleteMin(s, c2); ok {
		t.Fatal("c2 deleted from a drained queue")
	}
	if !s.Empty() {
		t.Fatal("shared pointer not nil after draining")
	}
	if it := s.FindMin(c1); it != nil {
		t.Fatalf("c1 FindMin on empty = key %d", it.Key())
	}
	if len(pub.blocks) != 1 {
		t.Fatalf("c1 rewrote the array it had published: %d blocks, want 1", len(pub.blocks))
	}
	if !s.Empty() {
		t.Fatal("c1 re-published a superseded array")
	}
}
