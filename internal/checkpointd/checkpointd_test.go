package checkpointd

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerSizeTrigger(t *testing.T) {
	var backlog atomic.Int64
	var ckpts atomic.Int64
	backlog.Store(100)
	s := Start(Policy{MaxWALBytes: 64, Poll: time.Millisecond}, Hooks{
		WALBytes: func() int64 { return backlog.Load() },
		Checkpoint: func() error {
			backlog.Store(0)
			ckpts.Add(1)
			return nil
		},
		SweepOrphans: func() int { return 0 },
	})
	defer s.Stop()
	waitFor(t, "size-triggered checkpoint", func() bool { return ckpts.Load() == 1 })
	// Backlog below the threshold and no age trigger: no further runs.
	time.Sleep(20 * time.Millisecond)
	if got := s.Stats().Runs; got != 1 {
		t.Fatalf("runs = %d after backlog dropped below threshold, want 1", got)
	}
	if err := s.LastErr(); err != nil {
		t.Fatalf("LastErr = %v after success, want nil", err)
	}
}

// TestSchedulerEvaluatesAtStart: a backlog already past the size trigger
// when the scheduler starts is checkpointed without waiting for a tick.
func TestSchedulerEvaluatesAtStart(t *testing.T) {
	var ckpts atomic.Int64
	s := Start(Policy{MaxWALBytes: 64, Poll: time.Hour}, Hooks{
		WALBytes: func() int64 { return 100 },
		Checkpoint: func() error {
			ckpts.Add(1)
			return nil
		},
		SweepOrphans: func() int { return 0 },
	})
	defer s.Stop()
	waitFor(t, "checkpoint at start", func() bool { return ckpts.Load() == 1 })
}

func TestSchedulerAgeTriggerNeedsWork(t *testing.T) {
	var backlog atomic.Int64
	var ckpts atomic.Int64
	s := Start(Policy{MaxAge: 2 * time.Millisecond, Poll: time.Millisecond}, Hooks{
		WALBytes: func() int64 { return backlog.Load() },
		Checkpoint: func() error {
			backlog.Store(0)
			ckpts.Add(1)
			return nil
		},
		SweepOrphans: func() int { return 0 },
	})
	defer s.Stop()
	// No un-checkpointed work: the age trigger must stay quiet.
	time.Sleep(20 * time.Millisecond)
	if got := ckpts.Load(); got != 0 {
		t.Fatalf("%d checkpoints with zero backlog, want 0", got)
	}
	backlog.Store(1)
	waitFor(t, "age-triggered checkpoint", func() bool { return ckpts.Load() >= 1 })
}

func TestSchedulerFailureBackoffAndRecovery(t *testing.T) {
	boom := errors.New("boom")
	var failing atomic.Bool
	var attempts atomic.Int64
	failing.Store(true)
	s := Start(Policy{MaxWALBytes: 1, Poll: time.Millisecond}, Hooks{
		WALBytes: func() int64 { return 10 },
		Checkpoint: func() error {
			attempts.Add(1)
			if failing.Load() {
				return boom
			}
			return nil
		},
		SweepOrphans: func() int { return 0 },
	})
	defer s.Stop()
	waitFor(t, "failed attempts", func() bool { return s.Stats().Failures >= 2 })
	if !errors.Is(s.LastErr(), boom) {
		t.Fatalf("LastErr = %v, want %v", s.LastErr(), boom)
	}
	failing.Store(false)
	waitFor(t, "recovery", func() bool { return s.Stats().Runs >= 1 })
	waitFor(t, "LastErr cleared", func() bool { return s.LastErr() == nil })
}

func TestSchedulerOrphanSweepCadence(t *testing.T) {
	var sweeps atomic.Int64
	s := Start(Policy{Poll: time.Millisecond, GCEvery: 2 * time.Millisecond}, Hooks{
		WALBytes:   func() int64 { return 0 },
		Checkpoint: func() error { return nil },
		SweepOrphans: func() int {
			sweeps.Add(1)
			return 3
		},
	})
	defer s.Stop()
	// Neither trigger is configured; the sweep must still run on cadence.
	waitFor(t, "orphan sweeps", func() bool { return sweeps.Load() >= 2 })
	waitFor(t, "orphan counter", func() bool { return s.Stats().OrphansRemoved >= 6 })
}

func TestSchedulerStopIdempotentAndWaits(t *testing.T) {
	// One slot: the checkpoint the scheduler triggers at start may signal
	// before the receive below is reached, and the send must not be lost.
	inCkpt := make(chan struct{}, 1)
	release := make(chan struct{})
	var done atomic.Bool
	s := Start(Policy{MaxWALBytes: 1, Poll: time.Millisecond}, Hooks{
		WALBytes: func() int64 { return 10 },
		Checkpoint: func() error {
			select {
			case inCkpt <- struct{}{}:
			default:
			}
			<-release
			done.Store(true)
			return nil
		},
		SweepOrphans: func() int { return 0 },
	})
	<-inCkpt
	stopped := make(chan struct{})
	go func() {
		s.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a checkpoint was in flight")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-stopped
	if !done.Load() {
		t.Fatal("Stop returned before the in-flight checkpoint finished")
	}
	s.Stop() // idempotent
}
