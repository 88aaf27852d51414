package klsm

import (
	"container/heap"
	"testing"

	"klsm/internal/binheap"
	"klsm/internal/xrand"
)

// fuzzHeap is the exact-PQ oracle for fuzzing.
type fuzzHeap []uint64

func (h fuzzHeap) Len() int            { return len(h) }
func (h fuzzHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h fuzzHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *fuzzHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *fuzzHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// FuzzSingleHandleExact drives a single-handle queue with byte-decoded
// operations and cross-checks every result against an exact heap: with one
// handle and local ordering, every configuration must behave exactly.
// Run with `go test -fuzz FuzzSingleHandleExact` for coverage-guided
// exploration; the seed corpus runs in ordinary `go test` invocations.
func FuzzSingleHandleExact(f *testing.F) {
	f.Add([]byte{0x00, 0x13, 0x07, 0x01, 0xff, 0x20})
	f.Add([]byte("insert-delete-insert"))
	f.Add([]byte{0x02, 0x04, 0x06, 0x01, 0x03, 0x05, 0x01, 0x01, 0x01})
	// Long seeded runs, one per k: the queue grows for the first half of
	// the input (two inserts per delete) and shrinks for the second, so the
	// oracle checks thousands of pops across merges, overflows to the
	// shared k-LSM and the drain back to empty.
	for sel := 0; sel < 3; sel++ {
		rng := xrand.NewSeeded(uint64(sel)*977 + 11)
		data := make([]byte, 4096)
		for i := range data {
			b := byte(rng.Uint64()) &^ 1 // insert
			if grow := i < len(data)/2; grow == (rng.Intn(3) == 0) {
				b |= 1 // delete
			}
			data[i] = b
		}
		data[0] = byte(sel) // selects k
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		ks := []int{0, 4, 256}
		k := 0
		if len(data) > 0 {
			k = ks[int(data[0])%len(ks)]
		}
		q := New[struct{}](WithRelaxation(k))
		h := q.NewHandle()
		ref := &fuzzHeap{}
		for i, b := range data {
			if b&1 == 0 || ref.Len() == 0 {
				key := uint64(b>>1) + uint64(i)<<7
				h.Insert(key, struct{}{})
				heap.Push(ref, key)
			} else {
				got, _, ok := h.TryDeleteMin()
				want := heap.Pop(ref).(uint64)
				if !ok {
					t.Fatalf("op %d: spurious empty with %d live keys", i, ref.Len()+1)
				}
				if got != want {
					t.Fatalf("op %d: got %d, want %d (single handle must be exact)", i, got, want)
				}
			}
			if q.Size() != ref.Len() {
				t.Fatalf("op %d: Size %d, oracle %d", i, q.Size(), ref.Len())
			}
		}
	})
}

// FuzzMixedOpsRelaxed drives the full operation surface — insert,
// delete-min, handle open/close, and Quiesce — against a model binheap with
// relaxation-aware matching: every returned key must be among the ρ+1
// smallest the model holds, with ρ = T·k for the peak number of open
// handles (closed handles drain to the shared structure, so their items
// stay matched). The first byte also selects the deletion-buffer capacity
// (including off and a degenerate size 1), so the corpus exercises buffered
// candidates surviving — and flushing across — Quiesce, handle close, and
// the final drain. The seed corpus encodes interleavings that have been
// load-bearing in development: close-with-items mid-stream, quiesce between
// bursts, drain-after-churn (the dry-candidate-window shape behind the
// overlay-only relaxation bug the k-bound suite caught), handle churn
// around reclamation, and a warm-buffer quiesce/close sequence.
func FuzzMixedOpsRelaxed(f *testing.F) {
	// insert bursts, then drain through a fresh handle after a close.
	f.Add([]byte{0x10, 0x00, 0x08, 0x10, 0x18, 0x05, 0x20, 0x03, 0x0b, 0x13, 0x1b})
	// quiesce between bursts, close while the guard state is warm.
	f.Add([]byte{0x00, 0x08, 0x07, 0x10, 0x18, 0x06, 0x07, 0x03, 0x0b})
	// drain-after-churn: many inserts, then deletes through a second handle
	// (the dry-window / overlay-only shape at small k).
	f.Add([]byte{0x40, 0x00, 0x08, 0x10, 0x18, 0x20, 0x28, 0x05, 0x03, 0x0b, 0x13, 0x1b, 0x23, 0x2b, 0x33})
	// close/open churn interleaved with everything, ending in quiesce.
	f.Add([]byte{0x00, 0x05, 0x08, 0x06, 0x10, 0x05, 0x03, 0x06, 0x18, 0x07, 0x0b, 0x07})
	// warm-buffer lifecycle at k=64 with the full 32-entry buffer: deletes
	// fill the buffer, a quiesce publishes under it (anchor break), a handle
	// opens and closes around further buffered pops, then the drain flushes
	// whatever is left — conservation must hold throughout.
	f.Add([]byte{0xb0, 0x00, 0x08, 0x10, 0x18, 0x20, 0x03, 0x04, 0x07, 0x0b, 0x05, 0x1b, 0x06, 0x13, 0x07, 0x23})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		ks := []int{0, 4, 64}
		bufs := []int{32, 0, 1, 4}
		k, buf := 0, 32
		if len(data) > 0 {
			k = ks[int(data[0]>>6)%len(ks)]
			buf = bufs[int(data[0]>>4)%len(bufs)]
		}
		q := New[struct{}](WithRelaxation(k), WithDeletionBuffer(buf))
		model := binheap.New(2)
		const maxOpen = 4
		handles := []*Handle[struct{}]{q.NewHandle()}
		peakOpen := 1
		active := 0
		var scratch []uint64

		// matchRelaxed removes key from the model if it ranks within the
		// ρ+1 smallest, reporting whether it did.
		matchRelaxed := func(key uint64) bool {
			rho := peakOpen * k
			scratch = scratch[:0]
			found := false
			for i := 0; i <= rho; i++ {
				m, ok := model.Pop()
				if !ok {
					break
				}
				if m == key {
					found = true
					break
				}
				scratch = append(scratch, m)
			}
			model.PushBulk(scratch)
			return found
		}

		inserted, deleted := 0, 0
		for i, b := range data {
			h := handles[active]
			switch b % 8 {
			case 0, 1, 2:
				key := uint64(b>>3) + uint64(i)<<5
				h.Insert(key, struct{}{})
				model.Push(key)
				inserted++
			case 3, 4:
				key, _, ok := h.TryDeleteMin()
				if !ok {
					continue
				}
				if !matchRelaxed(key) {
					t.Fatalf("op %d: key %d is not among the ρ+1=%d smallest live keys (k=%d, T=%d)",
						i, key, peakOpen*k+1, k, peakOpen)
				}
				deleted++
			case 5:
				if len(handles) < maxOpen {
					handles = append(handles, q.NewHandle())
					active = len(handles) - 1
					if len(handles) > peakOpen {
						peakOpen = len(handles)
					}
				} else {
					active = (active + 1) % len(handles)
				}
			case 6:
				if len(handles) > 1 {
					h.Close()
					handles = append(handles[:active], handles[active+1:]...)
					active %= len(handles)
				}
			case 7:
				q.Quiesce()
			}
		}

		// Drain everything through the first surviving handle; every
		// remaining model key must come back exactly once.
		h := handles[0]
		misses := 0
		for model.Len() > 0 {
			key, _, ok := h.TryDeleteMin()
			if !ok {
				if misses++; misses > 1000 {
					t.Fatalf("queue ran dry with %d keys still live in the model", model.Len())
				}
				continue
			}
			misses = 0
			if !matchRelaxed(key) {
				t.Fatalf("drain: key %d is not among the ρ+1 smallest live keys", key)
			}
			deleted++
		}
		if deleted != inserted {
			t.Fatalf("conservation violated: %d inserted, %d extracted", inserted, deleted)
		}
		if _, _, ok := h.TryDeleteMin(); ok {
			t.Fatal("delete-min succeeded on an empty queue")
		}
		q.Quiesce()
	})
}

// FuzzConservationWithReconfig interleaves inserts, deletes, melds of an
// empty queue, and run-time k changes, checking the conservation invariant
// (nothing lost, nothing duplicated).
func FuzzConservationWithReconfig(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		q := New[struct{}](WithRelaxation(8))
		h := q.NewHandle()
		inserted := map[uint64]int{}
		extracted := map[uint64]int{}
		ins, del := 0, 0
		for i, b := range data {
			switch b % 4 {
			case 0, 1:
				key := uint64(b) + uint64(i)
				h.Insert(key, struct{}{})
				inserted[key]++
				ins++
			case 2:
				if k, _, ok := h.TryDeleteMin(); ok {
					extracted[k]++
					del++
				}
			case 3:
				q.SetRelaxation(int(b) % 512)
			}
		}
		for {
			k, _, ok := h.TryDeleteMin()
			if !ok {
				break
			}
			extracted[k]++
			del++
		}
		if ins != del {
			t.Fatalf("conservation violated: %d inserted, %d extracted", ins, del)
		}
		for k, c := range extracted {
			if inserted[k] < c {
				t.Fatalf("key %d extracted %d times but inserted %d", k, c, inserted[k])
			}
		}
	})
}
