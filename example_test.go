package klsm_test

import (
	"fmt"

	"klsm"
)

// A single quiescent handle behaves like an exact priority queue (local
// ordering), which keeps examples deterministic.
func ExampleNew() {
	q := klsm.New[string]()
	h := q.NewHandle() // one handle per goroutine — never share

	h.Insert(42, "answer")
	h.Insert(7, "lucky")
	h.Insert(13, "unlucky")

	for {
		key, val, ok := h.TryDeleteMin()
		if !ok {
			break
		}
		fmt.Println(key, val)
	}
	// Output:
	// 7 lucky
	// 13 unlucky
	// 42 answer
}

func ExampleWithRelaxation() {
	// k = 0 is the strictest (exact) setting; larger k relaxes delete-min
	// to any of the T·k+1 smallest keys in exchange for scalability.
	q := klsm.New[int](klsm.WithRelaxation(0))
	h := q.NewHandle()
	for i := 5; i > 0; i-- {
		h.Insert(uint64(i), i*i)
	}
	key, val, _ := h.TryDeleteMin()
	fmt.Println(key, val, q.Rho())
	// Output:
	// 1 1 0
}

func ExampleQueue_SetRelaxation() {
	// k is run-time configurable (paper §1): loosen it under load, tighten
	// it when ordering matters more than throughput.
	q := klsm.New[int](klsm.WithRelaxation(1024))
	h := q.NewHandle()
	h.Insert(9, 9)
	q.SetRelaxation(4)
	fmt.Println(q.K(), q.Rho())
	// Output:
	// 4 4
}

func ExampleNewOrdered() {
	// v2 ordered keys: any ordered type with an order-preserving codec.
	// Float64Key gives IEEE totalOrder (NaNs at the extremes, -0 < +0);
	// TimeKey, Int64Key, StringPrefixKey and custom codecs plug in the
	// same way. The engine stays uint64 underneath — guarantees carry over.
	q := klsm.NewOrdered[float64, string](klsm.Float64Key(), klsm.WithRelaxation(0))
	h := q.NewHandle()

	h.Insert(2.5, "late")
	h.Insert(-1.5, "early")
	h.Insert(0.25, "middle")

	for {
		key, val, ok := h.TryDeleteMin()
		if !ok {
			break
		}
		fmt.Println(key, val)
	}
	// Output:
	// -1.5 early
	// 0.25 middle
	// 2.5 late
}

func ExampleQueue_Insert() {
	// Handle-free operations borrow a registered handle from an internal
	// registry per call: no setup, and ρ = T·k stays bounded by the peak
	// concurrency of handle-free calls, not by goroutine churn. Explicit
	// handles remain the fast path.
	q := klsm.New[string]()
	q.Insert(2, "two")
	q.Insert(1, "one")
	key, val, ok := q.TryDeleteMin()
	fmt.Println(key, val, ok)
	// Output:
	// 1 one true
}

func ExampleHandle_InsertBatch() {
	// A batch insert sorts once and publishes one block at level ⌈log₂n⌉ —
	// one merge cascade for the whole batch instead of n single-insert
	// cascades. values may be nil for zero-value payloads.
	q := klsm.New[string]()
	h := q.NewHandle()

	h.InsertBatch(
		[]uint64{30, 10, 20},
		[]string{"thirty", "ten", "twenty"},
	)
	fmt.Println(q.Size())
	key, val, _ := h.TryDeleteMin()
	fmt.Println(key, val)
	// Output:
	// 3
	// 10 ten
}

func ExampleHandle_DrainMin() {
	// DrainMin pops up to n items per call (append semantics, so the
	// destination slice can be recycled across calls); a short result
	// signals relaxed-emptiness like a failed TryDeleteMin.
	q := klsm.New[string]()
	h := q.NewHandle()
	h.InsertBatch([]uint64{4, 2, 1, 3}, nil)

	batch := h.DrainMin(nil, 3)
	for _, kv := range batch {
		fmt.Println(kv.Key)
	}
	fmt.Println("left:", q.Size())
	// Output:
	// 1
	// 2
	// 3
	// left: 1
}

func ExampleNewWithDrop() {
	// The §4.5 lazy-deletion callback discards stale entries during
	// maintenance — SSSP uses it to skip superseded distance labels.
	stale := map[uint64]bool{2: true}
	q := klsm.NewWithDrop[string](func(key uint64, _ string) bool {
		return stale[key]
	})
	h := q.NewHandle()
	h.Insert(2, "stale")
	h.Insert(5, "fresh")
	for {
		key, val, ok := h.TryDeleteMin()
		if !ok {
			break
		}
		fmt.Println(key, val)
	}
	// Output:
	// 5 fresh
}
