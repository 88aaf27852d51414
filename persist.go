package klsm

import (
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"klsm/internal/checkpointd"
	"klsm/internal/segment"
	"klsm/internal/wal"
	"klsm/internal/walfault"
)

// Durability errors. Both corruption errors are aliases of the internal
// sentinels, so errors.Is works across the package boundary.
var (
	// ErrClosed reports an operation on a closed queue. Error-returning
	// operations (Sync, Checkpoint, Close) return it; error-less operations
	// (Insert, TryDeleteMin, ...) panic with it, like other use-after-finish
	// misuse in the standard library.
	ErrClosed = errors.New("klsm: queue closed")
	// ErrNotPersistent reports a durability operation on a queue created by
	// New rather than Open.
	ErrNotPersistent = errors.New("klsm: queue has no persistence (created by New, not Open)")
	// ErrCorruptWAL reports provable mid-log corruption in the write-ahead
	// log: an interior record is damaged while later records are intact.
	// Open refuses to recover past it — silently dropping the record would
	// un-acknowledge an insert whose fsync succeeded. (A damaged *final*
	// record is a torn crash artifact, truncated silently; see Open.)
	ErrCorruptWAL = wal.ErrCorrupt
	// ErrCorruptCheckpoint reports a damaged checkpoint artifact: a segment
	// file or the MANIFEST fails its checksum or structural validation.
	ErrCorruptCheckpoint = segment.ErrCorrupt
)

// ckptChunk caps the entries per checkpoint segment file, so recovery loads
// each segment as one reasonably-sized pre-sorted block publication.
const ckptChunk = 128 << 10

// RecoveryStats describes what Open found and rebuilt.
type RecoveryStats struct {
	// Recovered is false when Open initialized a fresh directory.
	Recovered bool
	// SegmentItems counts items loaded from checkpoint segments (after
	// cancelling WAL-logged deletes).
	SegmentItems int64
	// WALRecords counts records replayed from the WAL tail.
	WALRecords int64
	// WALInserts counts WAL-tail inserts that survived (were re-applied).
	WALInserts int64
	// WALDeletes counts WAL-tail delete records.
	WALDeletes int64
	// UnknownDeletes counts delete records whose insert appeared in neither
	// the WAL nor any segment. They are counted, not fatal: a crash between
	// a checkpoint's segment fsync and its WAL switch cannot produce one,
	// but a WAL truncated by an operator can.
	UnknownDeletes int64
	// TornBytes is the length of the torn WAL tail Open truncated (bytes
	// past the last complete record — never acknowledged, by construction).
	TornBytes int64
	// FrozenWALs counts retired WAL files the manifest left un-compacted (a
	// crash landed between a checkpoint's rotation and its commit); their
	// records were replayed and the next checkpoint retires them.
	FrozenWALs int
}

// PersistStats is a snapshot of the durability layer's counters.
type PersistStats struct {
	// WALAppends, WALBytes and WALFsyncs count records appended, framed
	// bytes written and group-commit fsyncs on the live WAL since Open.
	WALAppends int64
	// WALBytes counts framed bytes written to the live WAL.
	WALBytes int64
	// WALFsyncs counts fsyncs issued on the live WAL.
	WALFsyncs int64
	// WALSyncWaits counts explicit Sync calls that had to wait for the
	// group-commit writer.
	WALSyncWaits int64
	// WALWrites counts write() calls on the live WAL; coalescing makes this
	// smaller than WALAppends under load.
	WALWrites int64
	// WALTimerFires counts SyncInterval timers that actually woke the
	// writer; timers made stale by an earlier Sync are canceled.
	WALTimerFires int64
	// LiveWALBytes is the current size of the live WAL file — the input to
	// the auto-checkpoint size trigger.
	LiveWALBytes int64
	// FrozenWALs is the current count of rotated-but-uncompacted WAL files
	// (nonzero only while a checkpoint is in flight or after one failed).
	FrozenWALs int
	// Checkpoints counts completed Checkpoint calls and CheckpointTime their
	// cumulative duration.
	Checkpoints int64
	// CheckpointTime is the cumulative wall time spent in Checkpoint.
	CheckpointTime time.Duration
	// AutoCheckpoints and AutoCheckpointFailures count scheduler-triggered
	// checkpoint attempts by outcome; OrphansRemoved counts files the timed
	// GC swept. All zero without WithAutoCheckpoint.
	AutoCheckpoints        int64
	AutoCheckpointFailures int64
	OrphansRemoved         int64
	// Segments is the number of live checkpoint segment files.
	Segments int
	// NextSeq is the next unassigned durability sequence number.
	NextSeq uint64
	// Recovery describes what Open found.
	Recovery RecoveryStats
}

// persister is the durability state of a queue created by Open.
type persister[V any] struct {
	fs    walfault.FS
	dir   string
	codec ValueCodec[V]

	// log is the live WAL. The pointer never changes after openFS —
	// Checkpoint rotates the Log's file in place — so the op path reads it
	// without synchronization.
	log *wal.Log
	// seq is the last assigned durability sequence number.
	seq atomic.Uint64

	// sched drives automatic checkpoints and timed orphan GC; nil without
	// WithAutoCheckpoint.
	sched *checkpointd.Scheduler

	// ckptMu serializes Checkpoint, the orphan sweep and Close against each
	// other and guards the fields below.
	ckptMu   sync.Mutex
	walName  string
	frozen   []string // rotated WALs not yet compacted (manifest Frozen)
	walBase  int64    // live WAL bytes present at Open (before log.FileBytes)
	segs     []segment.Ref
	walOrd   uint64 // ordinal for the next WAL file name
	segOrd   uint64 // ordinal for the next segment file name
	closed   bool
	recovery RecoveryStats

	ckpts     atomic.Int64
	ckptNanos atomic.Int64
}

// Open opens (or initializes) a persistent queue rooted at directory dir.
// codec serializes the payloads; opts accepts WithRelaxation plus the
// durability options (WithSyncInterval, WithAutoCheckpoint).
//
// On an existing directory Open recovers: it loads the checkpoint segments
// named by the MANIFEST, replays the WAL tail (re-applying inserts whose
// delete was never logged, cancelling the rest), truncates a torn final
// record, and resumes appending to the same WAL. Acknowledged operations —
// those covered by a Sync (or a WithSyncInterval group commit) that
// returned before the crash — survive exactly once. Unacknowledged ones may
// or may not, exactly like any write-behind log. Provable mid-log damage
// refuses with ErrCorruptWAL or ErrCorruptCheckpoint rather than silently
// recovering a partial queue.
func Open[V any](dir string, codec ValueCodec[V], opts ...Option) (*Queue[V], error) {
	fsys, err := walfault.OS(dir)
	if err != nil {
		return nil, err
	}
	return openFS(fsys, dir, codec, opts...)
}

// OpenFS is Open over a caller-supplied filesystem instead of a real
// directory: the fault-injection tests (and the server's crash harness) run
// a queue on a walfault.MemFS — with injected fsync errors, short writes
// and simulated kills — through exactly the production recovery paths. dir
// is used only in messages. Production callers want Open.
func OpenFS[V any](fsys walfault.FS, dir string, codec ValueCodec[V], opts ...Option) (*Queue[V], error) {
	return openFS(fsys, dir, codec, opts...)
}

// openFS is Open over an abstract filesystem — the crash-injection tests
// call it with a walfault.MemFS.
func openFS[V any](fsys walfault.FS, dir string, codec ValueCodec[V], opts ...Option) (*Queue[V], error) {
	if codec == nil {
		return nil, errors.New("klsm: Open requires a ValueCodec")
	}
	o := resolveOptions(opts)
	p := &persister[V]{
		fs:    fsys,
		dir:   dir,
		codec: codec,
	}

	m, err := segment.ReadManifest(fsys)
	switch {
	case err == nil:
		p.recovery.Recovered = true
	case errors.Is(err, fs.ErrNotExist):
		// Fresh directory: create an empty WAL, then publish the manifest
		// naming it. A crash between the two leaves an orphan WAL and no
		// manifest — the next Open simply initializes again.
		m = segment.Manifest{NextSeq: 1, WAL: ordName("wal", 1)}
		if err := createEmpty(fsys, m.WAL); err != nil {
			return nil, err
		}
		if err := segment.WriteManifest(fsys, m); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}

	// Scan the WAL chain — frozen files (oldest first), then the live WAL —
	// before touching segments: deletes logged anywhere in the chain cancel
	// items wherever they live. Records are appended in operation order and
	// rotation preserves that order across files, so a durable delete
	// implies its insert is durable too — earlier in the chain or in a
	// segment. A torn tail is truncated wherever it appears: torn bytes were
	// never fsynced, hence never acknowledged (a frozen file can only be
	// torn when the crash landed before the rotation that would have
	// fsynced it, with the successor still empty).
	chain := append(append([]string(nil), m.Frozen...), m.WAL)
	walInserts := make([][]wal.Op, len(chain))
	deleted := make(map[uint64]bool) // seq -> matched to its insert yet?
	maxSeq := uint64(0)
	for i, name := range chain {
		walData, err := fsys.ReadFile(name)
		if err != nil {
			return nil, fmt.Errorf("klsm: manifest names missing WAL %s: %w", name, err)
		}
		var inserts []wal.Op
		res, err := wal.Scan(walData, func(op wal.Op) {
			if op.Seq > maxSeq {
				maxSeq = op.Seq
			}
			if op.Delete {
				deleted[op.Seq] = false
				p.recovery.WALDeletes++
			} else {
				inserts = append(inserts, op)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("klsm: %s: %w", name, err)
		}
		walInserts[i] = inserts
		p.recovery.WALRecords += int64(res.Records)
		if res.Torn {
			p.recovery.TornBytes += int64(len(walData)) - res.GoodLen
			if err := fsys.Truncate(name, res.GoodLen); err != nil {
				return nil, err
			}
		}
		if name == m.WAL {
			p.walBase = res.GoodLen
		}
	}
	p.recovery.FrozenWALs = len(m.Frozen)

	q := &Queue[V]{q: newCoreQueue[V](o, nil)}
	q.p = p
	lh := q.q.NewHandle() // core-level loader handle: bypasses WAL logging

	// Load each checkpoint segment as one pre-sorted batch, skipping items
	// whose delete the WAL logged.
	var keys, seqs []uint64
	var vals []V
	for _, ref := range m.Segments {
		entries, err := segment.Read(fsys, ref.Name)
		if err != nil {
			return nil, fmt.Errorf("klsm: %w", err)
		}
		if int64(len(entries)) != ref.Count {
			return nil, fmt.Errorf("%w: klsm: segment %s holds %d entries, manifest says %d",
				ErrCorruptCheckpoint, ref.Name, len(entries), ref.Count)
		}
		keys, vals, seqs = keys[:0], vals[:0], seqs[:0]
		for _, e := range entries {
			if e.Seq > maxSeq {
				maxSeq = e.Seq
			}
			if _, dead := deleted[e.Seq]; dead {
				deleted[e.Seq] = true
				continue
			}
			v, err := codec.Decode(e.Value)
			if err != nil {
				return nil, fmt.Errorf("klsm: segment %s seq %d: decoding value: %w", ref.Name, e.Seq, err)
			}
			keys = append(keys, e.Key)
			vals = append(vals, v)
			seqs = append(seqs, e.Seq)
		}
		lh.InsertBatchSeqs(keys, vals, seqs)
		p.recovery.SegmentItems += int64(len(keys))
	}

	// Re-apply the never-deleted inserts of each WAL in the chain, one batch
	// per file, in chain order.
	for i, inserts := range walInserts {
		keys, vals, seqs = keys[:0], vals[:0], seqs[:0]
		for _, op := range inserts {
			if _, dead := deleted[op.Seq]; dead {
				deleted[op.Seq] = true
				continue
			}
			v, err := codec.Decode(op.Value)
			if err != nil {
				return nil, fmt.Errorf("klsm: %s seq %d: decoding value: %w", chain[i], op.Seq, err)
			}
			keys = append(keys, op.Key)
			vals = append(vals, v)
			seqs = append(seqs, op.Seq)
		}
		lh.InsertBatchSeqs(keys, vals, seqs)
		p.recovery.WALInserts += int64(len(keys))
	}
	for _, matched := range deleted {
		if !matched {
			p.recovery.UnknownDeletes++
		}
	}
	lh.Close()

	// Sweep artifacts the manifest does not name (half-written segments or
	// WALs from an interrupted checkpoint, a stale MANIFEST.tmp). Torn tails
	// were already truncated during the chain scan.
	live := map[string]bool{segment.ManifestName: true}
	for _, name := range chain {
		live[name] = true
		if n := ordOf(name); n >= p.walOrd {
			p.walOrd = n + 1
		}
	}
	for _, ref := range m.Segments {
		live[ref.Name] = true
		if n := ordOf(ref.Name); n >= p.segOrd {
			p.segOrd = n + 1
		}
	}
	if p.segOrd == 0 {
		p.segOrd = 1
	}
	if names, err := fsys.List(); err == nil {
		for _, n := range names {
			if !live[n] {
				fsys.Remove(n)
			}
		}
	}

	if m.NextSeq > 0 && m.NextSeq-1 > maxSeq {
		maxSeq = m.NextSeq - 1
	}
	p.seq.Store(maxSeq)
	p.walName = m.WAL
	p.frozen = m.Frozen
	p.segs = m.Segments

	l, err := wal.Open(fsys, m.WAL, o.syncInterval)
	if err != nil {
		return nil, err
	}
	p.log = l
	if o.ckptWALBytes > 0 || o.ckptInterval > 0 {
		p.sched = checkpointd.Start(
			checkpointd.Policy{MaxWALBytes: o.ckptWALBytes, MaxAge: o.ckptInterval},
			checkpointd.Hooks{
				WALBytes:     p.workBytes,
				Checkpoint:   p.checkpoint,
				SweepOrphans: p.sweepOrphans,
			})
	}
	return q, nil
}

// workBytes reports the un-checkpointed work the scheduler's triggers gate
// on: the live WAL's size, or a token byte when only a frozen backlog (from
// an interrupted compaction) remains to retire.
func (p *persister[V]) workBytes() int64 {
	p.ckptMu.Lock()
	base := p.walBase
	backlog := len(p.frozen)
	p.ckptMu.Unlock()
	b := base + p.log.FileBytes()
	if b == 0 && backlog > 0 {
		return 1
	}
	return b
}

// sweepOrphans removes every file in the directory that the committed
// manifest state does not name. It runs under ckptMu, so the live set it
// computes is exactly the committed state — a checkpoint mid-flight can
// never lose a file it just staged, and a manifest-named segment is never
// eligible by construction.
func (p *persister[V]) sweepOrphans() int {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	if p.closed {
		return 0
	}
	live := map[string]bool{segment.ManifestName: true, p.walName: true}
	for _, n := range p.frozen {
		live[n] = true
	}
	for _, s := range p.segs {
		live[s.Name] = true
	}
	names, err := p.fs.List()
	if err != nil {
		return 0
	}
	removed := 0
	for _, n := range names {
		if !live[n] && p.fs.Remove(n) == nil {
			removed++
		}
	}
	return removed
}

// appendInsert encodes value into scratch, appends the insert record, and
// returns the (possibly grown) scratch for reuse. WAL errors are sticky and
// deliberately not surfaced here — the insert still lands in memory, and the
// failure reports on the next Sync, Checkpoint or Close, like any
// write-behind log.
func (p *persister[V]) appendInsert(scratch []byte, key uint64, value V, seq uint64) []byte {
	buf, err := p.codec.Encode(scratch, value)
	if err != nil {
		panic(fmt.Errorf("klsm: value codec failed on insert: %w", err))
	}
	p.log.Append(wal.Op{Seq: seq, Key: key, Value: buf})
	return buf
}

// appendDelete logs the consumption of the insert with the given seq.
func (p *persister[V]) appendDelete(key, seq uint64) {
	p.log.Append(wal.Op{Delete: true, Seq: seq, Key: key})
}

// Sync blocks until every operation performed before the call is durable,
// and returns the WAL's sticky error if the log has failed. An operation is
// acknowledged — guaranteed to survive recovery exactly once — precisely
// when a Sync covering it has returned nil (group commit acknowledges
// batches: one fsync covers every operation since the previous one). On a
// queue created by New, Sync is a no-op.
func (q *Queue[V]) Sync() error {
	if q.closed.Load() {
		return ErrClosed
	}
	if q.p == nil {
		return nil
	}
	return q.p.log.Sync()
}

// Checkpoint compacts the durability state: it rotates the live WAL and
// merges the frozen log with the existing segments into a fresh sorted
// segment set, publishing each step through the MANIFEST. Recovery cost
// thereafter is proportional to the live item count plus the short new WAL,
// not to the operation history.
//
// Checkpoint is log-structured: it reads only immutable on-disk files —
// never the in-memory queue — so it is safe to run concurrently with every
// queue operation, including inserts and deletes (checkpoints and Close
// still serialize against each other). It returns ErrNotPersistent on a
// queue created by New and ErrClosed after Close. A crash at any point is
// safe: each MANIFEST is published by atomic rename, and every intermediate
// state replays acknowledged operations exactly once.
func (q *Queue[V]) Checkpoint() error {
	if q.p == nil {
		return ErrNotPersistent
	}
	return q.p.checkpoint()
}

// checkpoint runs one full log-structured checkpoint under ckptMu:
//
//  1. Stage a fresh empty WAL file.
//  2. Publish M1: the new WAL is live, the old live WAL joins the frozen
//     list, segments unchanged. From here recovery replays the old WAL as
//     frozen history — which is exactly what it holds.
//  3. Rotate the log: the writer fsyncs and closes the old file (now
//     complete and immutable) and directs pending plus future appends to
//     the new one. Append order is preserved across the cut.
//  4. Compact every frozen WAL and every old segment into a fresh segment
//     set (checkpointd.Compact — immutable inputs only).
//  5. Publish M2: frozen list empty, segments replaced. Then delete the
//     retired files.
//
// A failure between M1 and a completed rotation adopts M1 in memory and
// returns: the manifest-named state stays a superset of the files recovery
// needs, appends continue on the old file (still named, as frozen — it is
// simply not immutable yet), and the next attempt rotates it out with a
// fresh successor. A failure after rotation leaves the frozen backlog for
// the next attempt; Compact cleans up its own staging.
func (p *persister[V]) checkpoint() error {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	if p.closed {
		return ErrClosed
	}
	start := time.Now()

	newWAL := ordName("wal", p.walOrd)
	p.walOrd++
	if err := createEmpty(p.fs, newWAL); err != nil {
		p.fs.Remove(newWAL)
		return err
	}
	frozen := append(append([]string(nil), p.frozen...), p.walName)
	m1 := segment.Manifest{
		NextSeq:  p.seq.Load() + 1,
		WAL:      newWAL,
		Frozen:   frozen,
		Segments: p.segs,
	}
	if err := segment.WriteManifest(p.fs, m1); err != nil {
		p.fs.Remove(newWAL)
		return err
	}
	// M1 is durable: adopt it in memory before attempting the rotation, so
	// that whatever happens next, sweepOrphans' live set matches (is a
	// superset of) what the published manifest names.
	p.walName = newWAL
	p.frozen = frozen
	if err := p.log.Rotate(newWAL); err != nil {
		return err
	}
	p.walBase = 0

	refs, _, err := checkpointd.Compact(p.fs, frozen, p.segs, ckptChunk, func() string {
		name := ordName("seg", p.segOrd)
		p.segOrd++
		return name
	})
	if err != nil {
		return err
	}

	// The commit point: after this rename is durable, recovery compacts
	// nothing and replays only the short live WAL.
	m2 := segment.Manifest{NextSeq: p.seq.Load() + 1, WAL: newWAL, Segments: refs}
	if err := segment.WriteManifest(p.fs, m2); err != nil {
		for _, r := range refs {
			p.fs.Remove(r.Name)
		}
		return err
	}
	retiredSegs := p.segs
	p.frozen = nil
	p.segs = refs
	for _, n := range frozen {
		p.fs.Remove(n)
	}
	for _, s := range retiredSegs {
		p.fs.Remove(s.Name)
	}
	p.ckpts.Add(1)
	p.ckptNanos.Add(time.Since(start).Nanoseconds())
	return nil
}

// Close shuts the queue down: registry handles are retired, deferred
// reclamation is driven to completion (Quiesce), and — on persistent
// queues — the WAL is flushed, fsynced and closed, so a clean Close
// acknowledges everything. Close is not a checkpoint; call Checkpoint first
// to compact recovery cost. After Close, error-returning operations return
// ErrClosed and error-less ones panic with it. A second Close returns
// ErrClosed.
//
// Close must not run concurrently with queue operations (the Quiesce
// contract); explicit Handles should be closed first.
func (q *Queue[V]) Close() error {
	if q.closed.Swap(true) {
		return ErrClosed
	}
	if hs := q.registry.Swap(nil); hs != nil {
		for _, h := range *hs {
			h.h.Close()
		}
	}
	q.q.Quiesce()
	if q.p == nil {
		return nil
	}
	p := q.p
	// Stop the scheduler before taking ckptMu: an in-flight automatic
	// checkpoint holds the mutex and Stop waits for it to finish.
	if p.sched != nil {
		p.sched.Stop()
	}
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	p.closed = true
	return p.log.Close()
}

// PersistStats returns a snapshot of the durability counters; the zero
// PersistStats on a queue created by New.
func (q *Queue[V]) PersistStats() PersistStats {
	p := q.p
	if p == nil {
		return PersistStats{}
	}
	ws := p.log.Stats()
	p.ckptMu.Lock()
	nsegs := len(p.segs)
	nfrozen := len(p.frozen)
	walBase := p.walBase
	rec := p.recovery
	p.ckptMu.Unlock()
	st := PersistStats{
		WALAppends:     ws.Appends,
		WALBytes:       ws.Bytes,
		WALFsyncs:      ws.Fsyncs,
		WALSyncWaits:   ws.SyncWaits,
		WALWrites:      ws.Writes,
		WALTimerFires:  ws.TimerFires,
		LiveWALBytes:   walBase + p.log.FileBytes(),
		FrozenWALs:     nfrozen,
		Checkpoints:    p.ckpts.Load(),
		CheckpointTime: time.Duration(p.ckptNanos.Load()),
		Segments:       nsegs,
		NextSeq:        p.seq.Load() + 1,
		Recovery:       rec,
	}
	if p.sched != nil {
		ss := p.sched.Stats()
		st.AutoCheckpoints = ss.Runs
		st.AutoCheckpointFailures = ss.Failures
		st.OrphansRemoved = ss.OrphansRemoved
	}
	return st
}

// createEmpty creates name as an empty durable file.
func createEmpty(fsys walfault.FS, name string) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ordName formats the n-th file of a kind: "wal-000001", "seg-000042".
func ordName(prefix string, n uint64) string {
	return fmt.Sprintf("%s-%06d", prefix, n)
}

// ordOf parses the ordinal back out of an ordName-shaped name (0 if the
// name was produced elsewhere — the counters then restart above the rest).
func ordOf(name string) uint64 {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseUint(name[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
