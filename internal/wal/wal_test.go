package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"klsm/internal/walfault"
)

// roundTrip encodes ops, scans them back, and compares.
func TestRecordRoundTrip(t *testing.T) {
	in := []Op{
		{Seq: 1, Key: 42, Value: []byte("hello")},
		{Seq: 2, Key: 0, Value: nil},
		{Delete: true, Seq: 1, Key: 42},
		{Seq: 1<<63 + 5, Key: ^uint64(0), Value: make([]byte, 300)},
	}
	var buf []byte
	for _, op := range in {
		buf = AppendRecord(buf, op)
	}
	var out []Op
	res, err := Scan(buf, func(op Op) {
		op.Value = append([]byte(nil), op.Value...)
		out = append(out, op)
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn || res.GoodLen != int64(len(buf)) || res.Records != len(in) {
		t.Fatalf("scan result %+v, want clean %d records over %d bytes", res, len(in), len(buf))
	}
	for i := range in {
		if out[i].Delete != in[i].Delete || out[i].Seq != in[i].Seq || out[i].Key != in[i].Key ||
			string(out[i].Value) != string(in[i].Value) {
			t.Fatalf("record %d: got %+v want %+v", i, out[i], in[i])
		}
	}
}

// A truncated final record is a torn tail: dropped, not an error.
func TestScanTornTail(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, Op{Seq: 1, Key: 10, Value: []byte("abc")})
	clean := int64(len(buf))
	buf = AppendRecord(buf, Op{Seq: 2, Key: 20, Value: []byte("defgh")})
	for cut := clean + 1; cut < int64(len(buf)); cut++ {
		n := 0
		res, err := Scan(buf[:cut], func(Op) { n++ })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !res.Torn || res.GoodLen != clean || n != 1 {
			t.Fatalf("cut %d: got %+v (%d records), want torn with GoodLen %d", cut, res, n, clean)
		}
	}
}

// A damaged record with intact records after it must refuse with ErrCorrupt
// — for every byte of the first record.
func TestScanMidLogCorruption(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, Op{Seq: 1, Key: 10, Value: []byte("abc")})
	first := len(buf)
	buf = AppendRecord(buf, Op{Seq: 2, Key: 20, Value: []byte("defgh")})
	for i := 0; i < first; i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		_, err := Scan(mut, func(Op) {})
		if err == nil {
			t.Fatalf("flip at byte %d: corruption not detected", i)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at byte %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
}

// A flipped bit in the *final* record is indistinguishable from a torn
// write and must truncate cleanly instead of erroring.
func TestScanGarbledTailTruncates(t *testing.T) {
	var buf []byte
	buf = AppendRecord(buf, Op{Seq: 1, Key: 10, Value: []byte("abc")})
	clean := int64(len(buf))
	buf = AppendRecord(buf, Op{Seq: 2, Key: 20, Value: []byte("defgh")})
	mut := append([]byte(nil), buf...)
	mut[len(mut)-2] ^= 0x10
	n := 0
	res, err := Scan(mut, func(Op) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Torn || res.GoodLen != clean || n != 1 {
		t.Fatalf("got %+v (%d records), want torn with GoodLen %d", res, n, clean)
	}
}

// Group commit: concurrent appenders + Sync callers, then replay and check
// that every synced record is present and in seq order per appender.
func TestLogGroupCommitConcurrent(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 1})
	l, err := Open(fs, "wal", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq := uint64(w*each + i + 1)
				if _, err := l.Append(Op{Seq: seq, Key: seq, Value: []byte(fmt.Sprintf("v%d", seq))}); err != nil {
					t.Error(err)
					return
				}
				if i%100 == 99 {
					if err := l.Sync(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := l.Synced(), uint64(workers*each); got != want {
		t.Fatalf("synced LSN %d, want %d", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	res, err := Scan(data, func(op Op) {
		if seen[op.Seq] {
			t.Fatalf("seq %d appears twice", op.Seq)
		}
		seen[op.Seq] = true
	})
	if err != nil || res.Torn {
		t.Fatalf("scan: %v torn=%v", err, res.Torn)
	}
	if len(seen) != workers*each {
		t.Fatalf("replayed %d records, want %d", len(seen), workers*each)
	}
	if st := l.Stats(); st.Fsyncs == 0 || st.Fsyncs >= st.Appends {
		t.Fatalf("group commit did not batch: %+v", st)
	}
}

// After a crash, everything up to the last successful Sync must replay.
func TestLogCrashKeepsSyncedPrefix(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{Seed: 7})
	l, err := Open(fs, "wal", 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 100; seq++ {
		if _, err := l.Append(Op{Seq: seq, Key: seq}); err != nil {
			t.Fatal(err)
		}
		if seq == 60 {
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs.Crash()
	l.Abandon()
	data, err := fs.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	max := uint64(0)
	if _, err := Scan(data, func(op Op) { max = op.Seq }); err != nil {
		t.Fatal(err)
	}
	if max < 60 {
		t.Fatalf("synced prefix lost: max replayed seq %d < 60", max)
	}
}

// Injected fsync failures surface as sticky errors on Sync and Append.
func TestLogSyncFailureSticky(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{SyncFailRate: 1, Seed: 3})
	l, err := Open(fs, "wal", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Op{Seq: 1, Key: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, walfault.ErrSyncFault) {
		t.Fatalf("Sync error %v, want ErrSyncFault", err)
	}
	if _, err := l.Append(Op{Seq: 2, Key: 2}); !errors.Is(err, walfault.ErrSyncFault) {
		t.Fatalf("Append after failure: %v, want sticky ErrSyncFault", err)
	}
	if err := l.Close(); !errors.Is(err, walfault.ErrSyncFault) {
		t.Fatalf("Close: %v, want sticky ErrSyncFault", err)
	}
}

// Short writes surface as sticky errors too (the log never silently skips).
func TestLogShortWriteFails(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{ShortWriteRate: 1, Seed: 11})
	l, err := Open(fs, "wal", 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(Op{Seq: 1, Key: 1, Value: make([]byte, 64)})
	if err := l.Sync(); err == nil {
		t.Fatal("Sync succeeded over an injected short write")
	}
	l.Close()
}

// gateFS wraps an FS so every Write on files it opens consumes a token,
// letting a test hold the writer goroutine mid-write while appends pile up.
type gateFS struct {
	walfault.FS
	gate chan struct{}
}

func (g *gateFS) Append(name string) (walfault.File, error) {
	f, err := g.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, gate: g.gate}, nil
}

type gateFile struct {
	walfault.File
	gate chan struct{}
}

func (f *gateFile) Write(p []byte) (int, error) {
	<-f.gate
	return f.File.Write(p)
}

// Appends that accumulate while the writer is busy must go out in one
// coalesced write(), not one syscall per record.
func TestWriteCoalescing(t *testing.T) {
	gate := make(chan struct{})
	fs := &gateFS{FS: walfault.NewMemFS(walfault.Faults{}), gate: gate}
	l, err := Open(fs, "wal", 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for seq := uint64(1); seq <= n; seq++ {
		if _, err := l.Append(Op{Seq: seq, Key: seq, Value: []byte("payload")}); err != nil {
			t.Fatal(err)
		}
	}
	// Release the writer: however the swap raced the appends, everything
	// buffered behind the first blocked write must drain in at most one
	// more write call.
	go func() {
		for {
			gate <- struct{}{}
		}
	}()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Synced(); got != n {
		t.Fatalf("synced %d, want %d", got, n)
	}
	st := l.Stats()
	if st.Appends != n || st.Writes < 1 || st.Writes > 2 {
		t.Fatalf("expected %d appends in <= 2 coalesced writes, got %+v", n, st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile("wal")
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := Scan(data, func(Op) { count++ }); err != nil || count != n {
		t.Fatalf("replayed %d records (err %v), want %d", count, err, n)
	}
}

// An interval timer made stale by an explicit Sync must not fire a spurious
// fsync or wakeup; a timer with undurable records still must.
func TestStaleTimerCanceled(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{})
	const interval = 100 * time.Millisecond
	l, err := Open(fs, "wal", interval)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Op{Seq: 1, Key: 1}); err != nil {
		t.Fatal(err)
	}
	// The explicit Sync lands long before the timer's deadline and makes the
	// record durable; the timer must be canceled (or detect staleness).
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * interval)
	st := l.Stats()
	if st.Fsyncs != 1 || st.TimerFires != 0 {
		t.Fatalf("stale timer caused extra work: %+v (want 1 fsync, 0 timer fires)", st)
	}
	// Positive control: with no explicit Sync, the timer is the only thing
	// that makes the next record durable.
	if _, err := l.Append(Op{Seq: 2, Key: 2}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Synced() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("interval timer never synced record 2: %+v", l.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st = l.Stats()
	if st.TimerFires != 1 || st.Fsyncs != 2 {
		t.Fatalf("after timer commit: %+v (want 2 fsyncs, 1 timer fire)", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// createFile mirrors the persister's createEmpty: rotation targets must
// exist, empty and durable, before Rotate is called.
func createFile(t *testing.T, fs walfault.FS, name string) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// Rotate must leave the old file complete and fully durable, route later
// appends to the successor, and keep LSNs/durability working across the cut.
func TestRotate(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{})
	l, err := Open(fs, "wal-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if _, err := l.Append(Op{Seq: seq, Key: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	createFile(t, fs, "wal-b")
	if err := l.Rotate("wal-b"); err != nil {
		t.Fatal(err)
	}
	aData, err := fs.ReadFile("wal-a")
	if err != nil {
		t.Fatal(err)
	}
	if fs.SyncedLen("wal-a") != int64(len(aData)) {
		t.Fatalf("old file not fully durable after rotate: %d of %d bytes synced",
			fs.SyncedLen("wal-a"), len(aData))
	}
	var aSeqs []uint64
	if _, err := Scan(aData, func(op Op) { aSeqs = append(aSeqs, op.Seq) }); err != nil {
		t.Fatal(err)
	}
	if len(aSeqs) != 5 || aSeqs[4] != 5 {
		t.Fatalf("old file holds %v, want seqs 1..5", aSeqs)
	}
	for seq := uint64(6); seq <= 8; seq++ {
		if _, err := l.Append(Op{Seq: seq, Key: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Synced(); got != 8 {
		t.Fatalf("synced LSN %d after rotation, want 8", got)
	}
	if st := l.Stats(); st.Rotations != 1 {
		t.Fatalf("Rotations = %d, want 1", st.Rotations)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	bData, err := fs.ReadFile("wal-b")
	if err != nil {
		t.Fatal(err)
	}
	var bSeqs []uint64
	if _, err := Scan(bData, func(op Op) { bSeqs = append(bSeqs, op.Seq) }); err != nil {
		t.Fatal(err)
	}
	if len(bSeqs) != 3 || bSeqs[0] != 6 || bSeqs[2] != 8 {
		t.Fatalf("successor holds %v, want seqs 6..8", bSeqs)
	}
}

// Rotations racing a concurrent appender must preserve record order across
// the whole file chain and keep every pre-rotation file fully durable.
func TestRotateConcurrentAppends(t *testing.T) {
	fs := walfault.NewMemFS(walfault.Faults{})
	files := []string{"wal-000001", "wal-000002", "wal-000003", "wal-000004"}
	l, err := Open(fs, files[0], 100*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(1); seq <= n; seq++ {
			if _, err := l.Append(Op{Seq: seq, Key: seq}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, next := range files[1:] {
		createFile(t, fs, next)
		if err := l.Rotate(next); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	want := uint64(1)
	for i, name := range files {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		// Every file but the live one was closed by a rotation, which fsyncs
		// first: its entire contents must be durable.
		if i < len(files)-1 && fs.SyncedLen(name) != int64(len(data)) {
			t.Fatalf("%s: %d of %d bytes durable after rotation", name, fs.SyncedLen(name), len(data))
		}
		if _, err := Scan(data, func(op Op) {
			if op.Seq != want {
				t.Fatalf("%s: seq %d out of order, want %d", name, op.Seq, want)
			}
			want++
		}); err != nil {
			t.Fatal(err)
		}
	}
	if want != n+1 {
		t.Fatalf("replayed %d records across the chain, want %d", want-1, n)
	}
}
