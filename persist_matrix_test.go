package klsm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"klsm/internal/ostat"
	"klsm/internal/segment"
	"klsm/internal/walfault"
	"klsm/internal/xrand"
)

// matrixConfigs enumerates the engine-option rows of the crash-recovery
// matrix. Each row runs every crash mode.
func matrixConfigs() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"default", nil},
	}
}

// snapshotKeys returns the exact live key multiset of a quiescent queue via
// the checkpoint scan, as a count map (duplicate keys are legal).
func snapshotKeys[V any](q *Queue[V]) map[uint64]int {
	got := map[uint64]int{}
	q.q.SnapshotLive(func(k uint64, _ uint64, _ V) { got[k]++ })
	return got
}

// kBoundPhase runs the zero-slack relaxation check on a recovered queue: a
// single-goroutine random interleaving of inserts and deletes across several
// handles, with the recovered live multiset pre-seeded into an
// order-statistic treap so every pop is ranked against the exact live set —
// recovered items included. Recovery rebuilds the queue through the same
// block machinery as normal inserts, so ρ = T·k must hold with zero slack.
func kBoundPhase[V any](t *testing.T, q *Queue[V], zero V, seed uint64) {
	t.Helper()
	const handles = 3
	hs := make([]*Handle[V], handles)
	for i := range hs {
		hs[i] = q.NewHandle()
	}
	tree := ostat.New(seed)
	for k, n := range snapshotKeys(q) {
		for i := 0; i < n; i++ {
			tree.Insert(k)
		}
	}
	rng := xrand.NewSeeded(seed*2654435761 + 1)
	maxRank := 0
	for i := 0; i < 4000; i++ {
		h := hs[rng.Intn(handles)]
		if rng.Intn(10) < 4 || tree.Len() == 0 {
			key := rng.Uint64n(1 << 40)
			tree.Insert(key)
			h.Insert(key, zero)
			continue
		}
		key, _, ok := h.TryDeleteMin()
		if !ok {
			continue
		}
		rho := q.Rho()
		rank := tree.Rank(key)
		if !tree.Delete(key) {
			t.Fatalf("k-bound phase op %d: returned key %d is not live (conservation violation)", i, key)
		}
		if rank > rho {
			t.Fatalf("k-bound phase op %d: rank %d exceeds ρ = T·k = %d (relaxation violated)", i, rank, rho)
		}
		if rank > maxRank {
			maxRank = rank
		}
	}
	rho := q.Rho()
	for _, h := range hs {
		h.Close()
	}
	t.Logf("k-bound phase: max observed rank %d (bound ρ = %d)", maxRank, rho)
}

// TestCrashRecoveryMatrix crosses the engine-option rows with four
// crash/recovery modes:
//
//   - clean: Close, reopen, exact multiset must survive;
//   - kill: fs.Crash mid-run after an explicit Sync — acked operations
//     must survive exactly once, unacked inserts are at-most-once;
//   - torn: a WAL whose final record is physically cut mid-frame — Open
//     must truncate the tail and recover everything before it;
//   - corruptckpt: a bit flipped in a checkpoint segment — Open must
//     refuse with ErrCorruptCheckpoint, never panic or silently drop.
//
// After every successful recovery the queue passes the zero-slack k-bound
// check seeded with its recovered content.
func TestCrashRecoveryMatrix(t *testing.T) {
	for ci, cfg := range matrixConfigs() {
		cfg := cfg
		seed := uint64(ci)*7919 + 11
		t.Run(cfg.name+"/clean", func(t *testing.T) {
			fs := walfault.NewMemFS(walfault.Faults{Seed: seed})
			q := mustOpenFS(t, fs, cfg.opts)
			h := q.NewHandle()
			want := map[uint64]int{}
			rng := xrand.NewSeeded(seed)
			for i := 0; i < 3000; i++ {
				if rng.Intn(10) < 7 {
					k := rng.Uint64n(1 << 32)
					h.Insert(k, "v")
					want[k]++
				} else if k, _, ok := h.TryDeleteMin(); ok {
					want[k]--
					if want[k] == 0 {
						delete(want, k)
					}
				}
			}
			h.Close()
			if err := q.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			q2 := mustOpenFS(t, fs, cfg.opts)
			assertMultiset(t, snapshotKeys(q2), want)
			kBoundPhase(t, q2, "v", seed)
		})

		t.Run(cfg.name+"/kill", func(t *testing.T) {
			fs := walfault.NewMemFS(walfault.Faults{Seed: seed})
			q := mustOpenFS(t, fs, cfg.opts)
			h := q.NewHandle()
			rng := xrand.NewSeeded(seed + 1)
			ackedIns := map[uint64]bool{}
			pendIns := map[uint64]bool{}
			delAny := map[uint64]bool{}
			ackedDel := map[uint64]bool{}
			pendDel := map[uint64]bool{}
			nextKey := uint64(0)
			for i := 0; i < 2500; i++ {
				if rng.Intn(10) < 7 {
					k := nextKey
					nextKey++
					h.Insert(k, "v")
					pendIns[k] = true
				} else if k, _, ok := h.TryDeleteMin(); ok {
					pendDel[k] = true
					delAny[k] = true
				}
				if i == 2000 {
					if err := q.Sync(); err != nil {
						t.Fatalf("Sync: %v", err)
					}
					for k := range pendIns {
						ackedIns[k] = true
						delete(pendIns, k)
					}
					for k := range pendDel {
						ackedDel[k] = true
						delete(pendDel, k)
					}
				}
			}
			// Kill: writer goroutine may be mid-batch; the kept prefix is
			// whatever the scheduler got to disk.
			fs.Crash()
			q.p.log.Abandon()
			q2, err := openFS(fs, "mem", StringValue{}, cfg.opts...)
			if err != nil {
				t.Fatalf("reopen after kill: %v", err)
			}
			got := snapshotKeys(q2)
			for k, n := range got {
				if n > 1 {
					t.Fatalf("key %d recovered %d times (duplicate)", k, n)
				}
				if k >= nextKey {
					t.Fatalf("fabricated key %d", k)
				}
				if ackedDel[k] {
					t.Fatalf("acked-deleted key %d resurrected", k)
				}
			}
			for k := range ackedIns {
				if !delAny[k] && got[k] == 0 {
					t.Fatalf("acked insert %d lost", k)
				}
			}
			kBoundPhase(t, q2, "v", seed+2)
		})

		t.Run(cfg.name+"/torn", func(t *testing.T) {
			fs := walfault.NewMemFS(walfault.Faults{Seed: seed})
			q := mustOpenFS(t, fs, cfg.opts)
			h := q.NewHandle()
			want := map[uint64]int{}
			for k := uint64(0); k < 500; k++ {
				h.Insert(k, "v")
				want[k]++
			}
			h.Insert(1<<40, "torn-victim")
			h.Close()
			if err := q.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			// Cut the final record mid-frame: physically what a crash during
			// the last append leaves behind. Recovery must drop exactly the
			// cut record and keep everything before it.
			m, err := segment.ReadManifest(fs)
			if err != nil {
				t.Fatalf("manifest: %v", err)
			}
			data, err := fs.ReadFile(m.WAL)
			if err != nil {
				t.Fatalf("read WAL: %v", err)
			}
			if err := fs.Truncate(m.WAL, int64(len(data))-3); err != nil {
				t.Fatalf("truncate: %v", err)
			}
			q2 := mustOpenFS(t, fs, cfg.opts)
			if tb := q2.PersistStats().Recovery.TornBytes; tb <= 0 {
				t.Fatalf("expected torn tail, TornBytes = %d", tb)
			}
			assertMultiset(t, snapshotKeys(q2), want)
			kBoundPhase(t, q2, "v", seed+3)
		})

		t.Run(cfg.name+"/corruptckpt", func(t *testing.T) {
			fs := walfault.NewMemFS(walfault.Faults{Seed: seed})
			q := mustOpenFS(t, fs, cfg.opts)
			h := q.NewHandle()
			for k := uint64(0); k < 800; k++ {
				h.Insert(k, "v")
			}
			h.Close()
			if err := q.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if err := q.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			m, err := segment.ReadManifest(fs)
			if err != nil {
				t.Fatalf("manifest: %v", err)
			}
			if len(m.Segments) == 0 {
				t.Fatal("checkpoint produced no segments")
			}
			if err := fs.FlipBit(m.Segments[0].Name, 200); err != nil {
				t.Fatalf("FlipBit: %v", err)
			}
			_, err = openFS(fs, "mem", StringValue{}, cfg.opts...)
			if !errors.Is(err, ErrCorruptCheckpoint) {
				t.Fatalf("Open on corrupt segment: got %v, want ErrCorruptCheckpoint", err)
			}
		})
	}
}

// mustOpenFS opens a persistent StringValue queue over fs with the row's
// engine options, failing the test on error.
func mustOpenFS(t *testing.T, fs walfault.FS, opts []Option) *Queue[string] {
	t.Helper()
	q, err := openFS(fs, "mem", StringValue{}, opts...)
	if err != nil {
		t.Fatalf("openFS: %v", err)
	}
	return q
}

// assertMultiset fails unless got and want are the same key multiset.
func assertMultiset(t *testing.T, got, want map[uint64]int) {
	t.Helper()
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("key %d: recovered %d copies, want %d", k, got[k], n)
		}
	}
	for k, n := range got {
		if want[k] == 0 && n != 0 {
			t.Fatalf("key %d: recovered %d copies, want none", k, n)
		}
	}
}

// TestRecoveryConcurrentReuse reopens a crashed queue and immediately hits
// it from several goroutines — recovery must hand back a queue in a fully
// consistent engine state, not one that only survives single-threaded use.
func TestRecoveryConcurrentReuse(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 99})
	q := mustOpenFS(t, fs, nil)
	h := q.NewHandle()
	for k := uint64(0); k < 5000; k++ {
		h.Insert(k, "x")
	}
	if err := q.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	fs.Crash()
	q.p.log.Abandon()

	q2 := mustOpenFS(t, fs, nil)
	var wg sync.WaitGroup
	var popped sync.Map
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			wh := q2.NewHandle()
			defer wh.Close()
			rng := xrand.NewSeeded(uint64(w) + 1)
			for i := 0; i < 2000; i++ {
				runtime.Gosched()
				if rng.Intn(10) < 3 {
					wh.Insert(10_000+uint64(w)*100_000+uint64(i), "y")
				} else if k, _, ok := wh.TryDeleteMin(); ok {
					if _, dup := popped.LoadOrStore(k, w); dup {
						panic(fmt.Sprintf("key %d popped twice", k))
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent reuse of recovered queue hung")
	}
	if err := q2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
