package klsm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"klsm/internal/segment"
	"klsm/internal/walfault"
	"klsm/internal/xrand"
)

// crashQueue simulates kill -9: the filesystem tears its unsynced tails and
// invalidates handles, then the WAL writer goroutine is reaped. The queue
// object is garbage afterwards, exactly like a dead process's heap.
func crashQueue[V any](q *Queue[V], fs *walfault.MemFS) {
	fs.Crash()
	q.p.log.Abandon()
}

// drainAllStrings empties a single-threaded queue, returning the multiset
// of key/value pairs as "key/value" strings.
func drainAllStrings(t *testing.T, q *Queue[string]) map[string]int {
	t.Helper()
	h := q.NewHandle()
	defer h.Close()
	got := map[string]int{}
	misses := 0
	for i := 0; ; i++ {
		if i > 10_000_000 {
			t.Fatal("drain did not terminate")
		}
		k, v, ok := h.TryDeleteMin()
		if !ok {
			if q.Size() == 0 {
				misses++
				if misses >= 3 {
					return got
				}
			}
			continue
		}
		misses = 0
		got[fmt.Sprintf("%d/%s", k, v)]++
	}
}

func TestPersistFreshOpenEmpty(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 1})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	ps := q.PersistStats()
	if ps.Recovery.Recovered {
		t.Fatal("fresh directory reported as recovered")
	}
	if ps.NextSeq != 1 {
		t.Fatalf("NextSeq = %d on fresh queue", ps.NextSeq)
	}
	if q.Size() != 0 {
		t.Fatalf("fresh queue has %d items", q.Size())
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
}

// Clean close → reopen must reproduce the exact key/value multiset,
// including batch inserts and values, with deleted items gone.
func TestPersistRoundTripCleanClose(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 2})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	h := q.NewHandle()
	rng := xrand.NewSeeded(99)
	model := map[string]int{}
	for i := 0; i < 1500; i++ {
		k := rng.Uint64n(1 << 20)
		v := fmt.Sprintf("v%d", i)
		h.Insert(k, v)
		model[fmt.Sprintf("%d/%s", k, v)]++
	}
	// A couple of batches, one with nil values.
	keys := make([]uint64, 300)
	vals := make([]string, 300)
	for i := range keys {
		keys[i] = rng.Uint64n(1 << 20)
		vals[i] = fmt.Sprintf("b%d", i)
		model[fmt.Sprintf("%d/%s", keys[i], vals[i])]++
	}
	h.InsertBatch(keys, vals)
	nilKeys := []uint64{7, 7, 9}
	h.InsertBatch(nilKeys, nil)
	for _, k := range nilKeys {
		model[fmt.Sprintf("%d/", k)]++
	}
	// Delete a slice of the minimum, via both single pops and a drain.
	for i := 0; i < 400; i++ {
		k, v, ok := h.TryDeleteMin()
		if !ok {
			t.Fatal("unexpected empty")
		}
		key := fmt.Sprintf("%d/%s", k, v)
		if model[key] == 0 {
			t.Fatalf("deleted unknown pair %s", key)
		}
		model[key]--
	}
	for _, kv := range h.DrainMin(nil, 200) {
		key := fmt.Sprintf("%d/%s", kv.Key, kv.Value)
		if model[key] == 0 {
			t.Fatalf("drained unknown pair %s", key)
		}
		model[key]--
	}
	h.Close()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	if !q2.PersistStats().Recovery.Recovered {
		t.Fatal("reopen not marked recovered")
	}
	got := drainAllStrings(t, q2)
	for kv, n := range model {
		if n == 0 {
			delete(model, kv)
		}
	}
	if len(got) != len(model) {
		t.Fatalf("recovered %d distinct pairs, want %d", len(got), len(model))
	}
	for kv, n := range model {
		if got[kv] != n {
			t.Fatalf("pair %s: recovered %d, want %d", kv, got[kv], n)
		}
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
}

// After a crash, every op covered by a nil Sync survives exactly once and
// acked deletes stay deleted.
func TestPersistCrashKeepsAcked(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 3})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	h := q.NewHandle()
	acked := map[string]int{}
	for i := 0; i < 100; i++ {
		k := uint64(1000 + i)
		h.Insert(k, fmt.Sprintf("a%d", i))
		acked[fmt.Sprintf("%d/a%d", k, i)]++
	}
	// Delete the 10 smallest, then ack everything so far.
	for i := 0; i < 10; i++ {
		k, v, ok := h.TryDeleteMin()
		if !ok {
			t.Fatal("unexpected empty")
		}
		key := fmt.Sprintf("%d/%s", k, v)
		if acked[key] == 0 {
			t.Fatalf("deleted unknown pair %s", key)
		}
		delete(acked, key)
	}
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
	// Unacked churn: may or may not survive, but only at most once each.
	for i := 0; i < 50; i++ {
		h.Insert(uint64(5000+i), fmt.Sprintf("u%d", i))
	}
	crashQueue(q, fs)

	q2, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	got := drainAllStrings(t, q2)
	for kv := range acked {
		if got[kv] != 1 {
			t.Fatalf("acked pair %s recovered %d times, want exactly 1", kv, got[kv])
		}
		delete(got, kv)
	}
	for kv, n := range got {
		if n != 1 {
			t.Fatalf("pair %s recovered %d times", kv, n)
		}
		var k uint64
		var v string
		if _, err := fmt.Sscanf(kv, "%d/%s", &k, &v); err != nil || k < 5000 || v[0] != 'u' {
			t.Fatalf("recovered pair %s is neither acked nor pending", kv)
		}
	}
	q2.Close()
}

// Checkpoint moves state into segments, resets the WAL, and survives both a
// clean close and a crash afterwards.
func TestPersistCheckpoint(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 4})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	h := q.NewHandle()
	model := map[string]int{}
	for i := 0; i < 3000; i++ {
		k := uint64(i * 7 % 4096)
		v := fmt.Sprintf("c%d", i)
		h.Insert(k, v)
		model[fmt.Sprintf("%d/%s", k, v)]++
	}
	for i := 0; i < 500; i++ {
		k, v, ok := h.TryDeleteMin()
		if !ok {
			t.Fatal("unexpected empty")
		}
		model[fmt.Sprintf("%d/%s", k, v)]--
	}
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ps := q.PersistStats()
	if ps.Checkpoints != 1 || ps.Segments == 0 {
		t.Fatalf("after checkpoint: %+v", ps)
	}
	m, err := segment.ReadManifest(fs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Segments) == 0 || m.WAL == "wal-000001" {
		t.Fatalf("manifest not rotated: %+v", m)
	}
	if data, err := fs.ReadFile(m.WAL); err != nil || len(data) != 0 {
		t.Fatalf("new WAL not empty: %d bytes, %v", len(data), err)
	}
	if _, err := fs.ReadFile("wal-000001"); err == nil {
		t.Fatal("old WAL not removed after checkpoint")
	}

	// Post-checkpoint ops land in the new WAL; ack them; crash.
	for i := 0; i < 200; i++ {
		k := uint64(100_000 + i)
		v := fmt.Sprintf("p%d", i)
		h.Insert(k, v)
		model[fmt.Sprintf("%d/%s", k, v)]++
	}
	if err := q.Sync(); err != nil {
		t.Fatal(err)
	}
	crashQueue(q, fs)

	q2, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	rs := q2.PersistStats().Recovery
	if rs.SegmentItems == 0 {
		t.Fatalf("recovery loaded no segment items: %+v", rs)
	}
	got := drainAllStrings(t, q2)
	for kv, n := range model {
		if n == 0 {
			delete(model, kv)
		}
	}
	if len(got) != len(model) {
		t.Fatalf("recovered %d distinct pairs, want %d", len(got), len(model))
	}
	for kv, n := range model {
		if got[kv] != n {
			t.Fatalf("pair %s: recovered %d, want %d", kv, got[kv], n)
		}
	}
	q2.Close()
}

// Close-then-op semantics: typed errors from error-returning operations,
// ErrClosed panics from error-less ones.
func TestPersistCloseSemantics(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 5})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	h := q.NewHandle()
	h.Insert(1, "one")
	h.Close()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: %v", err)
	}
	if err := q.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: %v", err)
	}
	mustPanicClosed := func(name string, f func()) {
		defer func() {
			r := recover()
			err, ok := r.(error)
			if !ok || !errors.Is(err, ErrClosed) {
				t.Fatalf("%s after Close: panic %v, want ErrClosed", name, r)
			}
		}()
		f()
	}
	h2 := &Handle[string]{q: q} // stand-in: real handles cannot be created on a closed queue
	mustPanicClosed("Handle.Insert", func() { h2.Insert(2, "two") })
	mustPanicClosed("Handle.TryDeleteMin", func() { h2.TryDeleteMin() })
	mustPanicClosed("Queue.Insert", func() { q.Insert(3, "three") })
	mustPanicClosed("Queue.TryDeleteMin", func() { q.TryDeleteMin() })
	mustPanicClosed("Queue.NewHandle", func() { q.NewHandle() })
}

// Close works (and gates ops) on plain New queues too.
func TestCloseNonPersistent(t *testing.T) {
	q := New[int]()
	q.Insert(1, 1) // puts a registry handle in play
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v", err)
	}
	if err := q.Checkpoint(); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("Checkpoint on New queue: %v, want ErrNotPersistent", err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Insert after Close did not panic")
		}
	}()
	q.Insert(2, 2)
}

func TestMeldPanicsOnPersistentQueue(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 6})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	other := New[string]()
	h := q.NewHandle()
	defer h.Close()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Meld on persistent queue did not panic")
		}
	}()
	h.Meld(other)
}

// InsertRef and Delete must refuse a persistent queue: a delete by
// reference would leave the WAL no delete record.
func TestDeleteByRefPanicsOnPersistentQueue(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 8})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a persistent queue did not panic", what)
			}
		}()
		f()
	}
	mustPanic("InsertRef", func() { q.InsertRef(1, "x") })
	mustPanic("Delete", func() { q.Delete(New[string]().InsertRef(1, "x")) })
}

// Mid-log WAL corruption (a flipped bit in durable data with intact records
// after it) must refuse with ErrCorruptWAL, never recover silently.
func TestOpenRejectsMidLogCorruptWAL(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 7})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	h := q.NewHandle()
	for i := 0; i < 50; i++ {
		h.Insert(uint64(i), "x")
	}
	h.Close()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a bit early in the durable image: records after it are intact.
	if err := fs.FlipBit("wal-000001", 40*8+3); err != nil {
		t.Fatal(err)
	}
	if _, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0)); !errors.Is(err, ErrCorruptWAL) {
		t.Fatalf("Open on corrupt WAL: %v, want ErrCorruptWAL", err)
	}
}

// A corrupted checkpoint segment must refuse with ErrCorruptCheckpoint.
func TestOpenRejectsCorruptSegment(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 8})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	h := q.NewHandle()
	for i := 0; i < 500; i++ {
		h.Insert(uint64(i), fmt.Sprintf("s%d", i))
	}
	h.Close()
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m, err := segment.ReadManifest(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.FlipBit(m.Segments[0].Name, 100*8); err != nil {
		t.Fatal(err)
	}
	if _, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0)); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("Open on corrupt segment: %v, want ErrCorruptCheckpoint", err)
	}
}

// A corrupted MANIFEST must refuse with ErrCorruptCheckpoint.
func TestOpenRejectsCorruptManifest(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 9})
	q, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.FlipBit(segment.ManifestName, 8*8); err != nil {
		t.Fatal(err)
	}
	if _, err := openFS(fs, "mem", StringValue{}, WithSyncInterval(0)); !errors.Is(err, ErrCorruptCheckpoint) {
		t.Fatalf("Open on corrupt manifest: %v, want ErrCorruptCheckpoint", err)
	}
}

// OpenOrdered over the real filesystem (walfault.OS), with a key codec and
// the JSON value codec — the full public persistence surface end to end.
func TestOpenOrderedRealFS(t *testing.T) {
	dir := t.TempDir()
	type task struct {
		Name string
		N    int
	}
	q, err := OpenOrdered[int64](dir, Int64Key(), JSONValue[task](), WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	q.Insert(-5, task{Name: "urgent", N: 1})
	q.Insert(10, task{Name: "later", N: 2})
	q.Insert(0, task{Name: "zero", N: 3})
	if err := q.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	q.Insert(-20, task{Name: "urgent2", N: 4})
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := OpenOrdered[int64](dir, Int64Key(), JSONValue[task](), WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		k int64
		n int
	}{{-20, 4}, {-5, 1}, {0, 3}, {10, 2}}
	for _, w := range want {
		k, v, ok := q2.TryDeleteMin()
		if !ok || k != w.k || v.N != w.n {
			t.Fatalf("pop: got (%d,%+v,%v), want key %d n %d", k, v, ok, w.k, w.n)
		}
	}
	if _, _, ok := q2.TryDeleteMin(); ok {
		t.Fatal("queue not empty after draining")
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
}

// Recovery speed acceptance: a million-item queue must reopen in seconds.
func TestRecoverMillionItems(t *testing.T) {
	if testing.Short() {
		t.Skip("1e6-item recovery test skipped in -short")
	}
	fs := walfault.NewMemFS(walfault.Faults{Seed: 10})
	q, err := openFS(fs, "mem", NoValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	h := q.NewHandle()
	const total = 1_000_000
	const chunk = 100_000
	keys := make([]uint64, chunk)
	rng := xrand.NewSeeded(77)
	for off := 0; off < total; off += chunk {
		for i := range keys {
			keys[i] = rng.Uint64n(1 << 40)
		}
		h.InsertBatch(keys, nil)
	}
	h.Close()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	q2, err := openFS(fs, "mem", NoValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if q2.Size() != total {
		t.Fatalf("recovered %d items, want %d", q2.Size(), total)
	}
	t.Logf("recovered %d items from WAL in %v", total, elapsed)
	if elapsed > 30*time.Second {
		t.Fatalf("recovery took %v — acceptance is seconds, not minutes", elapsed)
	}
	// Checkpoint, then recover again from segments: must be at least as fast.
	if err := q2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	q3, err := openFS(fs, "mem", NoValue{}, WithSyncInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	segElapsed := time.Since(start)
	if q3.Size() != total {
		t.Fatalf("segment recovery got %d items, want %d", q3.Size(), total)
	}
	t.Logf("recovered %d items from segments in %v", total, segElapsed)
	q3.Close()
}
