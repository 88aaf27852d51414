package core

import (
	"sort"
	"sync"
	"testing"

	"klsm/internal/xrand"
)

func combined(k int) *Queue[int] {
	return NewQueue(Config[int]{K: k, Mode: Combined, LocalOrdering: true})
}

func drainHandle(h *Handle[int]) []uint64 {
	var out []uint64
	for {
		k, _, ok := h.TryDeleteMin()
		if !ok {
			return out
		}
		out = append(out, k)
	}
}

func TestEmptyQueue(t *testing.T) {
	for _, mode := range []Mode{Combined, DistOnly, SharedOnly} {
		q := NewQueue(Config[int]{K: 4, Mode: mode, LocalOrdering: true})
		h := q.NewHandle()
		if _, _, ok := h.TryDeleteMin(); ok {
			t.Fatalf("mode %v: TryDeleteMin on empty succeeded", mode)
		}
		if _, _, ok := h.PeekMin(); ok {
			t.Fatalf("mode %v: PeekMin on empty succeeded", mode)
		}
		if q.Size() != 0 {
			t.Fatalf("mode %v: Size = %d", mode, q.Size())
		}
	}
}

func TestSingleHandleExactWithKZero(t *testing.T) {
	q := combined(0)
	h := q.NewHandle()
	keys := []uint64{5, 3, 9, 1, 7, 2, 8}
	for _, k := range keys {
		h.Insert(k, int(k))
	}
	if q.Size() != len(keys) {
		t.Fatalf("Size = %d, want %d", q.Size(), len(keys))
	}
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for _, w := range want {
		k, v, ok := h.TryDeleteMin()
		if !ok || k != w {
			t.Fatalf("got %d (%v), want %d", k, ok, w)
		}
		if uint64(v) != k {
			t.Fatalf("payload mismatch: key %d value %d", k, v)
		}
	}
}

// TestSingleHandleRankBound: with one handle, delete-min must return a key of
// rank <= k among live keys (ρ = 1·k).
func TestSingleHandleRankBound(t *testing.T) {
	for _, k := range []int{0, 4, 64, 256} {
		q := combined(k)
		h := q.NewHandle()
		src := xrand.NewSeeded(uint64(k)*31 + 5)
		var live []uint64
		for i := 0; i < 2000; i++ {
			key := src.Uint64() % 100000
			h.Insert(key, 0)
			j := sort.Search(len(live), func(i int) bool { return live[i] >= key })
			live = append(live, 0)
			copy(live[j+1:], live[j:])
			live[j] = key
		}
		for len(live) > 0 {
			key, _, ok := h.TryDeleteMin()
			if !ok {
				t.Fatalf("k=%d: empty with %d live keys", k, len(live))
			}
			rank := sort.Search(len(live), func(i int) bool { return live[i] >= key })
			if rank > k {
				t.Fatalf("k=%d: key %d has rank %d > k", k, key, rank)
			}
			j := sort.Search(len(live), func(i int) bool { return live[i] >= key })
			if j == len(live) || live[j] != key {
				t.Fatalf("k=%d: deleted key %d not live", k, key)
			}
			live = append(live[:j], live[j+1:]...)
		}
	}
}

// TestLocalOrderingPerHandle: a handle deletes its own inserts in exact
// order even when other handles flood the queue with smaller structures.
func TestLocalOrderingPerHandle(t *testing.T) {
	q := combined(1024)
	noise := q.NewHandle()
	mine := q.NewHandle()
	for i := uint64(0); i < 5000; i++ {
		noise.Insert(100000+i, 0)
	}
	myKeys := []uint64{50, 10, 30, 20, 40}
	for _, k := range myKeys {
		mine.Insert(k, 0)
	}
	// mine's keys are globally smallest; local ordering guarantees mine
	// receives them in ascending order.
	for _, want := range []uint64{10, 20, 30, 40, 50} {
		k, _, ok := mine.TryDeleteMin()
		if !ok || k != want {
			t.Fatalf("local ordering violated: got %d (%v), want %d", k, ok, want)
		}
	}
}

func TestSpyFindsOtherHandlesItems(t *testing.T) {
	q := NewQueue(Config[int]{K: 1 << 20, Mode: Combined, LocalOrdering: true})
	producer := q.NewHandle()
	consumer := q.NewHandle()
	for i := uint64(0); i < 100; i++ {
		producer.Insert(i, int(i))
	}
	// With a huge k nothing overflowed to the shared k-LSM, so the consumer
	// must spy to see anything.
	got := drainHandle(consumer)
	if len(got) != 100 {
		t.Fatalf("consumer extracted %d of 100 items via spying", len(got))
	}
	if consumer.SpyCalls.Load() == 0 {
		t.Fatal("consumer never spied")
	}
}

func TestDistOnlyMode(t *testing.T) {
	q := NewQueue(Config[int]{Mode: DistOnly})
	h := q.NewHandle()
	src := xrand.NewSeeded(3)
	const n = 2000
	for i := 0; i < n; i++ {
		h.Insert(src.Uint64()%10000, 0)
	}
	got := drainHandle(h)
	if len(got) != n {
		t.Fatalf("drained %d of %d", len(got), n)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("DistOnly single handle drain not sorted (local ordering broken)")
	}
}

func TestSharedOnlyMode(t *testing.T) {
	q := NewQueue(Config[int]{K: 8, Mode: SharedOnly, LocalOrdering: true})
	h := q.NewHandle()
	for i := uint64(0); i < 100; i++ {
		h.Insert(i, 0)
	}
	got := drainHandle(h)
	if len(got) != 100 {
		t.Fatalf("drained %d of 100", len(got))
	}
}

// TestConservationConcurrent: the fundamental exactly-once test across
// modes and relaxation settings under real concurrency.
func TestConservationConcurrent(t *testing.T) {
	workers := 8
	n := 5000
	if testing.Short() {
		n = 1000
	}
	configs := []Config[int]{
		{K: 0, Mode: Combined, LocalOrdering: true},
		{K: 4, Mode: Combined, LocalOrdering: true},
		{K: 256, Mode: Combined, LocalOrdering: true},
		{K: 4096, Mode: Combined, LocalOrdering: false},
		{Mode: DistOnly},
		{K: 16, Mode: SharedOnly, LocalOrdering: true},
	}
	for _, cfg := range configs {
		q := NewQueue(cfg)
		var wg sync.WaitGroup
		results := make([][]uint64, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				h := q.NewHandle()
				base := uint64(id * n)
				for i := 0; i < n; i++ {
					h.Insert(base+uint64(i), id)
				}
				for {
					k, _, ok := h.TryDeleteMin()
					if !ok {
						return
					}
					results[id] = append(results[id], k)
				}
			}(w)
		}
		wg.Wait()
		seen := make(map[uint64]int)
		total := 0
		for _, keys := range results {
			total += len(keys)
			for _, k := range keys {
				seen[k]++
			}
		}
		if total != workers*n {
			t.Fatalf("cfg %+v: extracted %d keys, want %d", cfg, total, workers*n)
		}
		for k, c := range seen {
			if c != 1 {
				t.Fatalf("cfg %+v: key %d extracted %d times", cfg, k, c)
			}
		}
		if q.Size() != 0 {
			t.Fatalf("cfg %+v: Size = %d after drain", cfg, q.Size())
		}
	}
}

// TestMixedWorkloadConcurrent exercises interleaved inserts and deletes (the
// throughput benchmark's access pattern) and then checks conservation.
func TestMixedWorkloadConcurrent(t *testing.T) {
	const workers = 6
	ops := 20000
	if testing.Short() {
		ops = 4000
	}
	q := combined(256)
	var wg sync.WaitGroup
	inserted := make([]int, workers)
	deleted := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := q.NewHandle()
			src := xrand.NewSeeded(uint64(id) + 99)
			for i := 0; i < ops; i++ {
				if src.Bool() {
					h.Insert(src.Uint64()%1_000_000, id)
					inserted[id]++
				} else if _, _, ok := h.TryDeleteMin(); ok {
					deleted[id]++
				}
			}
		}(w)
	}
	wg.Wait()
	totalIns, totalDel := 0, 0
	for w := 0; w < workers; w++ {
		totalIns += inserted[w]
		totalDel += deleted[w]
	}
	// Drain the remainder with a fresh handle.
	h := q.NewHandle()
	rest := len(drainHandle(h))
	if totalDel+rest != totalIns {
		t.Fatalf("conservation violated: inserted %d, deleted %d + drained %d", totalIns, totalDel, rest)
	}
}

func TestRhoAndHandles(t *testing.T) {
	q := combined(16)
	if q.Rho() != 0 {
		t.Fatalf("Rho with no handles = %d", q.Rho())
	}
	q.NewHandle()
	q.NewHandle()
	q.NewHandle()
	if q.Handles() != 3 || q.Rho() != 48 {
		t.Fatalf("Handles = %d, Rho = %d", q.Handles(), q.Rho())
	}
}

func TestLazyDeletionDrop(t *testing.T) {
	stale := map[uint64]bool{}
	var mu sync.Mutex
	q := NewQueue(Config[int]{
		K: 4, Mode: Combined, LocalOrdering: true,
		Drop: func(key uint64, _ int) bool {
			mu.Lock()
			defer mu.Unlock()
			return stale[key]
		},
	})
	h := q.NewHandle()
	for i := uint64(0); i < 200; i++ {
		h.Insert(i, 0)
	}
	mu.Lock()
	for i := uint64(0); i < 200; i += 2 {
		stale[i] = true
	}
	mu.Unlock()
	got := drainHandle(h)
	for _, k := range got {
		if k%2 == 0 {
			// Some even keys may legitimately surface if they were never
			// copied after being marked stale; lazy deletion is best-effort.
			// But the count must not exceed the pre-marking copies.
			continue
		}
	}
	odd := 0
	for _, k := range got {
		if k%2 == 1 {
			odd++
		}
	}
	if odd != 100 {
		t.Fatalf("lazy deletion lost live items: %d odd keys of 100", odd)
	}
}

func TestMeld(t *testing.T) {
	a := combined(8)
	b := combined(8)
	ha := a.NewHandle()
	hb := b.NewHandle()
	for i := uint64(0); i < 50; i++ {
		ha.Insert(i, 1)
	}
	for i := uint64(50); i < 100; i++ {
		hb.Insert(i, 2)
	}
	ha.Meld(b)
	got := drainHandle(ha)
	if len(got) != 100 {
		t.Fatalf("after meld drained %d keys, want 100", len(got))
	}
	seen := map[uint64]bool{}
	for _, k := range got {
		if seen[k] {
			t.Fatalf("key %d extracted twice after meld", k)
		}
		seen[k] = true
	}
}

// TestMeldMovesClosedBalance: Meld moves the whole Size balance of the
// source, including the totals of its closed handles; a balance left behind
// makes dst count 0 while it holds the items, and src keep counting them
// after dst drained them.
func TestMeldMovesClosedBalance(t *testing.T) {
	src := combined(8)
	dst := combined(8)
	hs := src.NewHandle()
	for i := uint64(0); i < 100; i++ {
		hs.Insert(i, 1)
	}
	hs.Close()
	hd := dst.NewHandle()
	hd.Meld(src)
	if got := dst.Size(); got != 100 {
		t.Fatalf("dst.Size() = %d after meld, want 100", got)
	}
	if got := src.Size(); got != 0 {
		t.Fatalf("src.Size() = %d after meld, want 0", got)
	}
	if got := len(drainHandle(hd)); got != 100 {
		t.Fatalf("drained %d keys after meld, want 100", got)
	}
	if s, d := src.Size(), dst.Size(); s != 0 || d != 0 {
		t.Fatalf("after the drain src.Size() = %d, dst.Size() = %d, want 0 and 0", s, d)
	}
}

// TestMeldPinsSourceRetirements: Meld reads the source's blocks under a
// guest record pinned in the source's epoch domain, so no source handle
// recycles what it retires while the meld runs. The destination's drop
// filter runs inside Meld (its shared inserts merge the copies); there the
// source's owner consolidates away a block holding the last reference to a
// taken item, which must park until Meld withdraws its guest.
func TestMeldPinsSourceRetirements(t *testing.T) {
	src := combined(256)
	hs := src.NewHandle()
	// DistLSM: a level-1 block [20 10] and a level-0 block [30].
	for _, k := range []uint64{10, 20, 30} {
		hs.Insert(k, int(k))
	}
	if k, _, ok := hs.TryDeleteMin(); !ok || k != 10 {
		t.Fatalf("pop = %d, %v, want 10", k, ok)
	}
	probed := false
	var during int64
	dst := NewQueue(Config[int]{K: 256, Mode: Combined, LocalOrdering: true,
		Drop: func(uint64, int) bool {
			if !probed {
				probed = true
				hs.dist.Consolidate() // retires the block owing item 10
				during = hs.pool.Stats().ItemsReclaimed
			}
			return false
		}})
	hd := dst.NewHandle()
	hd.Meld(src)
	if !probed {
		t.Fatal("the destination's filter never ran inside Meld")
	}
	if during != 0 {
		t.Fatalf("the source reclaimed %d items while Meld was reading it", during)
	}
	src.Quiesce()
	if got := hs.pool.Stats().ItemsReclaimed; got != 1 {
		t.Fatalf("the source reclaimed %d items after Meld, want 1", got)
	}
}

func TestPayloadIntegrity(t *testing.T) {
	type payload struct {
		A string
		B int
	}
	q := NewQueue(Config[payload]{K: 4, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	h.Insert(2, payload{"two", 2})
	h.Insert(1, payload{"one", 1})
	k, v, ok := h.TryDeleteMin()
	if !ok || v.A == "" || int(k) != v.B {
		t.Fatalf("payload corrupted: key %d payload %+v", k, v)
	}
}

func BenchmarkCombinedInsertK256(b *testing.B) {
	q := NewQueue(Config[struct{}]{K: 256, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	src := xrand.NewSeeded(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(src.Uint64(), struct{}{})
	}
}

func BenchmarkCombinedMixK256(b *testing.B) {
	q := NewQueue(Config[struct{}]{K: 256, Mode: Combined, LocalOrdering: true})
	h := q.NewHandle()
	src := xrand.NewSeeded(1)
	for i := 0; i < 4096; i++ {
		h.Insert(src.Uint64(), struct{}{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if src.Bool() {
			h.Insert(src.Uint64(), struct{}{})
		} else {
			h.TryDeleteMin()
		}
	}
}
