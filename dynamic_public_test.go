package klsm

import (
	"sort"
	"testing"
)

func TestSetRelaxationPublic(t *testing.T) {
	q := New[int](WithRelaxation(4096))
	h := q.NewHandle()
	for i := uint64(0); i < 500; i++ {
		h.Insert(500-i, 0)
	}
	q.SetRelaxation(0)
	if q.K() != 0 {
		t.Fatalf("K = %d", q.K())
	}
	// One insert applies the tightened bound to this handle.
	h.Insert(1000, 0)
	var got []uint64
	for {
		k, _, ok := h.TryDeleteMin()
		if !ok {
			break
		}
		got = append(got, k)
	}
	if len(got) != 501 {
		t.Fatalf("drained %d of 501", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("single-handle drain with k=0 not sorted")
	}
	if q.Rho() != 0 {
		t.Fatalf("Rho = %d with k=0", q.Rho())
	}
}
