package klsm

import (
	"sync/atomic"
	"testing"
)

// TestCompactDoesNotGrowRegistry: handle-free operations that overlap a
// Queue.Compact borrow registry handles the sweep is not holding instead of
// registering new ones, so T — and ρ = T·k — stays bounded however often
// Compact runs (timerq's pressure-triggered Compact overlaps its own
// Schedule calls exactly like this). The drop filter, armed once per
// Compact, runs one handle-free Insert on another goroutine while the sweep
// holds a handle, and waits for it.
func TestCompactDoesNotGrowRegistry(t *testing.T) {
	var armed atomic.Bool
	var q *Queue[int]
	q = NewWithDrop(func(key uint64, _ int) bool {
		if armed.CompareAndSwap(true, false) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				q.Insert(key, 0)
			}()
			<-done
		}
		return false
	}, WithRelaxation(16))
	for i := 0; i < 1000; i++ {
		q.Insert(uint64(i), i)
	}
	for c := 0; c < 50; c++ {
		armed.Store(true)
		q.Compact()
		if armed.Load() {
			t.Fatalf("Compact %d never called the filter", c)
		}
	}
	// One handle for the sweep, one for the overlapping Insert.
	if got := q.Stats().Handles; got != 2 {
		t.Fatalf("registry holds %d handles after 50 overlapped Compacts, want 2", got)
	}
}
