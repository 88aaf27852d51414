package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"klsm/internal/walfault"
)

// ErrClosed is returned by operations on a closed (or abandoned) log.
var ErrClosed = errors.New("wal: closed")

const (
	// bufferCap is the pending-byte high-water mark: Append blocks (in
	// memory, waiting for the writer goroutine — never on disk) once this
	// many bytes are buffered.
	bufferCap = 4 << 20
	// coalesceBytes is the writer's batch growth target: after swapping out
	// the pending buffer, the writer keeps folding in bytes that mutators
	// appended meanwhile until the batch reaches this size or the pending
	// buffer runs dry, then issues one write() for the whole run.
	// Coalescing never waits — it only gathers work that already exists —
	// so it trades no latency for fewer syscalls.
	coalesceBytes = 256 << 10
)

// Stats counts the log's I/O activity; all fields are cumulative.
type Stats struct {
	// Appends is the number of records appended.
	Appends int64
	// Bytes is the number of framed bytes written to the file.
	Bytes int64
	// Writes is the number of write() calls issued. Coalescing makes this
	// smaller than the number of pending-buffer swaps under load.
	Writes int64
	// Fsyncs is the number of Sync calls issued to the file.
	Fsyncs int64
	// SyncWaits is the number of explicit Sync calls that had to wait for
	// the writer (a measure of how often callers outrun group commit).
	SyncWaits int64
	// TimerFires counts sync-interval timers that fired and actually woke
	// the writer for an fsync. A timer whose records an explicit Sync
	// already made durable is canceled — or, losing that race, detects
	// staleness and does nothing — so it never shows up here.
	TimerFires int64
	// Rotations counts completed Rotate calls.
	Rotations int64
}

// Log is an append-only record log with group commit. The append fast path
// encodes the record — length-prefixed but with both CRC fields still zero —
// into an in-memory buffer under a short mutex and returns; a single
// background goroutine seals the CRCs in one pass per batch, drains the
// buffer to the file in coalesced write() calls, and decides when to fsync
// per its sync interval. Appends therefore never block on disk (only,
// briefly, on the buffer mutex, or on bufferCap backpressure), pay no
// checksum on the mutator's critical path, and one fsync acknowledges every
// record buffered since the previous one — the group-commit batching that
// keeps WAL overhead sublinear in the sync policy.
type Log struct {
	fs walfault.FS
	// syncInterval bounds how long after an unsynced append the writer
	// fsyncs; 0 leaves fsyncs to Sync, Rotate and Close.
	syncInterval time.Duration

	mu      sync.Mutex
	cond    *sync.Cond
	name    string
	f       walfault.File // owned by the writer goroutine after Open
	pending []byte        // unsealed frames not yet handed to the writer
	spare   []byte        // recycled batch buffer
	pendRec int           // records in pending
	// appended is the LSN (1-based count) of the last record accepted by
	// Append; synced is the highest LSN known durable. Guarded by mu;
	// synced additionally readable via the atomic for stats.
	appended uint64
	syncReq  bool
	closed   bool
	abandon  bool
	err      error // sticky: first write/sync failure; the log is dead after
	done     chan struct{}

	// Interval-timer state: at most one timer is armed; timerTarget is the
	// highest LSN the armed timer must cover. An fsync that reaches the
	// target cancels the timer; a callback that loses the cancel race
	// observes synced >= timerTarget and stands down.
	timer       *time.Timer
	timerOn     bool
	timerTarget uint64

	// Rotation state: rotateTo/rotateName carry the successor file to the
	// writer; rotateGen increments when a rotation completes (or fails).
	rotateTo   walfault.File
	rotateName string
	rotateGen  uint64

	synced     atomic.Uint64
	appends    atomic.Int64
	bytes      atomic.Int64
	fileBytes  atomic.Int64
	writes     atomic.Int64
	fsyncs     atomic.Int64
	waits      atomic.Int64
	timerFires atomic.Int64
	rotations  atomic.Int64
}

// Open opens (creating or appending to) the named log file on fs and starts
// the writer goroutine. The caller must have already truncated any torn
// tail (see Scan) — Open itself does not read the file.
//
// syncInterval is the group-commit policy: the writer fsyncs at most this
// long after an unsynced append, which bounds the acknowledgement latency.
// 0 disables timer-based syncing: the log then fsyncs only on explicit Sync,
// Rotate and Close.
func Open(fs walfault.FS, name string, syncInterval time.Duration) (*Log, error) {
	f, err := fs.Append(name)
	if err != nil {
		return nil, err
	}
	l := &Log{fs: fs, name: name, f: f, syncInterval: syncInterval, done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.writer()
	return l, nil
}

// Append encodes op into the pending buffer and returns its LSN (the
// 1-based position in the record stream). The record is durable once
// Synced() reaches the returned LSN; Sync() blocks until everything
// appended so far is. Append never touches the file and never checksums:
// it blocks only on the buffer mutex and, above bufferCap, on
// writer backpressure; the CRC32C work happens on the writer goroutine.
func (l *Log) Append(op Op) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pending) >= bufferCap && l.err == nil && !l.closed {
		l.cond.Wait()
	}
	if l.err != nil {
		return 0, l.err
	}
	if l.closed {
		return 0, ErrClosed
	}
	l.pending = appendUnsealed(l.pending, op)
	l.pendRec++
	l.appended++
	l.appends.Add(1)
	if l.pendRec == 1 {
		// Empty→non-empty transition: the writer may be parked on the
		// cond. While pending stays non-empty the writer is provably awake
		// (it re-checks under this mutex before waiting), so steady-state
		// appends skip the wakeup syscall entirely.
		l.cond.Broadcast()
	}
	return l.appended, nil
}

// Sync blocks until every record appended before the call is durable (or
// the log has failed, returning the sticky error). Concurrent Sync callers
// share fsyncs: the writer issues one fsync for all of them.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	target := l.appended
	if l.synced.Load() >= target {
		return l.err
	}
	l.waits.Add(1)
	l.syncReq = true
	l.cond.Broadcast()
	for l.synced.Load() < target && l.err == nil && !(l.closed && l.abandon) {
		l.cond.Wait()
	}
	return l.err
}

// Rotate redirects the log to the named successor file, which must already
// exist (created and fsynced by the caller): the writer drains every record
// appended before the cut — written or still pending — to the current file,
// fsyncs it, closes it, and appends everything later to the successor.
// Record order is
// preserved across the cut, and the old file is fully durable before the
// new file receives its first byte, so the cross-file replay invariant — a
// durable record implies every earlier record is durable — holds exactly as
// within one file. LSNs and counters continue across the rotation.
//
// Rotate blocks until the switch is complete and must not run concurrently
// with itself or Close (the caller serializes — in klsm, under ckptMu). On
// a failed or closed log it returns the sticky error without switching.
func (l *Log) Rotate(name string) error {
	f, err := l.fs.Append(name)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.closed {
		err := l.err
		f.Close()
		if err != nil {
			return err
		}
		return ErrClosed
	}
	gen := l.rotateGen
	l.rotateTo = f
	l.rotateName = name
	l.cond.Broadcast()
	for l.rotateGen == gen && l.err == nil && !(l.closed && l.abandon) {
		l.cond.Wait()
	}
	if l.rotateGen == gen {
		// The writer never took the handle (the log died first): reclaim it.
		if l.rotateTo == f {
			l.rotateTo = nil
			l.rotateName = ""
			f.Close()
		}
		if l.err != nil {
			return l.err
		}
		return ErrClosed
	}
	return l.err
}

// Synced returns the highest durable LSN.
func (l *Log) Synced() uint64 { return l.synced.Load() }

// Appended returns the LSN of the most recently appended record.
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Err returns the sticky error, if the log has failed.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// FileBytes returns the framed bytes written to the current file since Open
// or the last Rotate — the live file's growth, which auto-checkpoint
// policies use as their size trigger.
func (l *Log) FileBytes() int64 { return l.fileBytes.Load() }

// Stats returns the cumulative I/O counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:    l.appends.Load(),
		Bytes:      l.bytes.Load(),
		Writes:     l.writes.Load(),
		Fsyncs:     l.fsyncs.Load(),
		SyncWaits:  l.waits.Load(),
		TimerFires: l.timerFires.Load(),
		Rotations:  l.rotations.Load(),
	}
}

// Close flushes and fsyncs everything pending, stops the writer, and closes
// the file. Further Appends fail with ErrClosed. Close is idempotent; it
// returns the sticky error if the log failed earlier.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		err := l.err
		l.mu.Unlock()
		<-l.done
		return err
	}
	l.closed = true
	l.syncReq = true
	l.cond.Broadcast()
	l.mu.Unlock()
	<-l.done
	l.mu.Lock()
	err := l.err
	f := l.f
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abandon stops the writer goroutine without flushing or touching the file,
// simulating the process dying mid-run: buffered records are dropped
// exactly as a kill would drop them. Used by the crash-injection tests;
// production shutdown is Close.
func (l *Log) Abandon() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	l.abandon = true
	if l.err == nil {
		// Anyone mid-Sync must not report durability that never happened:
		// the simulated crash kills their "process", so they observe an
		// error exactly as a real fsync caller would observe a torn-down
		// file descriptor.
		l.err = ErrClosed
	}
	l.pending = nil
	l.pendRec = 0
	l.syncReq = false
	l.cond.Broadcast()
	l.mu.Unlock()
	<-l.done
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	f.Close()
}

// writer is the single background goroutine: it seals and drains pending
// batches to the file, performs rotations, and issues the group-commit
// fsyncs.
func (l *Log) writer() {
	defer close(l.done)
	var unsynced int  // records written to the file but not fsynced
	var wrote uint64  // LSN covered by the file writes so far
	var lastErr error // local view of the sticky error
	fail := func(err error) {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		lastErr = l.err
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && !l.syncReq && l.rotateTo == nil && !l.closed {
			l.cond.Wait()
		}
		if l.abandon || (l.closed && len(l.pending) == 0 && !l.syncReq &&
			l.rotateTo == nil && unsynced == 0) {
			l.mu.Unlock()
			return
		}
		// Rotation cut: everything appended up to this observation of
		// rotateTo — written or still pending — is drained to, fsynced to,
		// and sealed in the old file; only later appends go to the
		// successor. Draining the pending tail here is what lets a
		// checkpoint rotate immediately after a burst and still freeze the
		// burst; order is preserved because the cut is a single point in
		// the pending stream.
		if rot := l.rotateTo; rot != nil {
			l.rotateTo = nil
			name := l.rotateName
			l.rotateName = ""
			old := l.f
			batch := l.pending
			recs := l.pendRec
			l.pending = l.spare[:0]
			l.spare = nil
			l.pendRec = 0
			lsn := l.appended
			l.syncReq = false
			l.mu.Unlock()
			var err error
			if lastErr == nil && len(batch) > 0 {
				sealFrames(batch)
				if _, werr := old.Write(batch); werr != nil {
					err = werr
				} else {
					l.bytes.Add(int64(len(batch)))
					l.fileBytes.Add(int64(len(batch)))
					l.writes.Add(1)
					unsynced += recs
					wrote = lsn
				}
			}
			if lastErr == nil && err == nil && unsynced > 0 {
				if err = old.Sync(); err == nil {
					l.fsyncs.Add(1)
					unsynced = 0
					l.synced.Store(wrote)
				}
			}
			if lastErr == nil && err == nil {
				err = old.Close()
			}
			l.mu.Lock()
			if l.spare == nil && cap(batch) <= 8<<20 {
				l.spare = batch[:0]
			}
			if l.timerOn && l.synced.Load() >= l.timerTarget && l.timer.Stop() {
				l.timerOn = false
			}
			if lastErr == nil && err == nil {
				l.f = rot
				l.name = name
				l.fileBytes.Store(0)
				l.rotations.Add(1)
			} else {
				rot.Close()
				if l.err == nil && err != nil {
					l.err = err
				}
				lastErr = l.err
			}
			l.rotateGen++
			l.cond.Broadcast()
			l.mu.Unlock()
			continue
		}
		batch := l.pending
		recs := l.pendRec
		l.pending = l.spare[:0]
		l.spare = nil
		l.pendRec = 0
		lsn := l.appended
		doSync := l.syncReq
		l.syncReq = false
		closing := l.closed
		f := l.f
		l.mu.Unlock()

		if lastErr == nil && len(batch) > 0 {
			// Coalesce: while the batch is below the growth target and
			// mutators have queued more frames meanwhile, fold them in and
			// write once. This only gathers work that already exists — the
			// writer never waits for a fuller batch — so it converts bursts
			// of small swaps into one write() without adding latency.
			for len(batch) < coalesceBytes {
				l.mu.Lock()
				if len(l.pending) == 0 || l.rotateTo != nil {
					l.mu.Unlock()
					break
				}
				batch = append(batch, l.pending...)
				recs += l.pendRec
				l.pending = l.pending[:0]
				l.pendRec = 0
				lsn = l.appended
				doSync = doSync || l.syncReq
				l.syncReq = false
				l.cond.Broadcast() // release bufferCap backpressure
				l.mu.Unlock()
			}
			sealFrames(batch)
			if _, err := f.Write(batch); err != nil {
				fail(err)
			} else {
				l.bytes.Add(int64(len(batch)))
				l.fileBytes.Add(int64(len(batch)))
				l.writes.Add(1)
				unsynced += recs
				wrote = lsn
			}
		}
		// Return the drained buffer for reuse and release backpressure.
		l.mu.Lock()
		if l.spare == nil && cap(batch) <= 8<<20 {
			l.spare = batch[:0]
		}
		l.cond.Broadcast()
		l.mu.Unlock()

		if lastErr == nil && unsynced > 0 && (doSync || closing) {
			if err := f.Sync(); err != nil {
				fail(err)
			} else {
				l.fsyncs.Add(1)
				unsynced = 0
				l.synced.Store(wrote)
				l.mu.Lock()
				// An armed interval timer whose records this fsync just
				// covered is stale: cancel it so it cannot fire a spurious
				// wakeup. Losing the Stop race is fine — the callback
				// re-checks the target and stands down.
				if l.timerOn && l.synced.Load() >= l.timerTarget && l.timer.Stop() {
					l.timerOn = false
				}
				l.cond.Broadcast()
				l.mu.Unlock()
			}
		} else if lastErr == nil && unsynced > 0 && l.syncInterval > 0 {
			l.armTimer(wrote)
		}
		if lastErr != nil {
			// Dead log: drain state so Close can finish, then park until
			// closed. Waiters were woken with the sticky error.
			l.mu.Lock()
			for !l.closed {
				l.cond.Wait()
			}
			l.mu.Unlock()
			return
		}
		if closing && unsynced == 0 {
			l.mu.Lock()
			empty := len(l.pending) == 0
			l.mu.Unlock()
			if empty {
				return
			}
		}
	}
}

// armTimer schedules a deferred group-commit fsync syncInterval from now
// covering at least the given LSN, unless one is already armed (whose
// earlier deadline then covers the new records too) or the target is
// already durable.
func (l *Log) armTimer(target uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || target <= l.synced.Load() {
		return
	}
	if target > l.timerTarget {
		l.timerTarget = target
	}
	if l.timerOn {
		return
	}
	l.timerOn = true
	if l.timer == nil {
		l.timer = time.AfterFunc(l.syncInterval, l.timerFire)
	} else {
		l.timer.Reset(l.syncInterval)
	}
}

// timerFire is the interval timer's callback: it wakes the writer for a
// group-commit fsync — unless an explicit Sync made the covered records
// durable first, in which case the fire is stale and does nothing (and is
// not counted).
func (l *Log) timerFire() {
	l.mu.Lock()
	if !l.timerOn {
		// Lost a cancel race that Stop won after this callback was already
		// scheduled: the fsync that canceled covered everything we would.
		l.mu.Unlock()
		return
	}
	l.timerOn = false
	if !l.closed && l.synced.Load() < l.timerTarget {
		l.syncReq = true
		l.timerFires.Add(1)
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}
