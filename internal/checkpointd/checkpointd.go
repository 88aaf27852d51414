// Package checkpointd implements the automatic half of the durability
// layer's checkpoint machinery: log-structured compaction of frozen WAL
// files into sorted segments, and the size/age-triggered scheduler that
// runs checkpoints and orphan-file GC off the mutators' hot path.
//
// # Compaction
//
// A checkpoint begins by rotating the live WAL: the old file is frozen —
// complete, durable, immutable — and named by a published manifest, so a
// crash at any later point loses nothing. Compact then merges every frozen
// WAL and every existing segment into a fresh sorted segment set, purely
// from those immutable on-disk inputs. It never reads the in-memory queue,
// which is what makes a checkpoint safe to run concurrently with inserts
// and deletes: mutators keep appending to the successor WAL while Compact
// reads files no one writes anymore.
//
// Compaction rewrites the full segment set each time, because a frozen
// delete may target an entry inside any existing segment and the segment
// format has no tombstones: applying deletes during the merge is what keeps
// recovery O(live items + live WAL), not O(history).
//
// # Delete resolution
//
// Every delete record is appended after the insert it consumes (queue
// program order, serialized by the WAL mutex), and rotation preserves
// append order across files. A delete found in a frozen WAL therefore has
// its insert in the same WAL, an older frozen WAL, or a segment — all
// inputs of the same Compact call — so the merge resolves every delete it
// is responsible for. Deletes in the live WAL against freshly-compacted
// entries are the one remaining kind; recovery cancels those at replay,
// exactly as it always has.
package checkpointd

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"klsm/internal/segment"
	"klsm/internal/wal"
	"klsm/internal/walfault"
)

// CompactStats describes one compaction's inputs and effect.
type CompactStats struct {
	// FrozenWALs and FrozenRecords count the retired WAL inputs.
	FrozenWALs    int
	FrozenRecords int64
	// SegmentsIn counts the pre-existing segment files merged.
	SegmentsIn int
	// Entries is the live entry count written out.
	Entries int64
	// DeletesApplied counts delete records whose insert the merge found and
	// cancelled; UnknownDeletes counts ones it did not (possible only after
	// operator surgery on the directory — counted, not fatal, mirroring
	// recovery).
	DeletesApplied int64
	UnknownDeletes int64
}

// Compact merges the frozen WAL files and existing segments into a fresh
// sorted segment set of at most chunk entries per file, naming each new file
// via nextSeg and fsyncing it before returning. On error every file it
// created is removed; the caller's manifest still names the inputs, so the
// checkpoint can simply be retried. Compact reads only immutable files and
// is safe to run concurrently with appends to the live (successor) WAL.
func Compact(fs walfault.FS, frozen []string, segs []segment.Ref, chunk int,
	nextSeg func() string) ([]segment.Ref, CompactStats, error) {
	var st CompactStats
	st.FrozenWALs = len(frozen)
	st.SegmentsIn = len(segs)

	// Deletes from every frozen WAL cancel entries wherever they live; a
	// frozen file is complete and durable (rotation fsynced it), so a torn
	// or corrupt record here is real damage, not a crash artifact.
	deleted := make(map[uint64]bool) // seq -> matched to its insert yet?
	type walInput struct {
		name string
		ops  []wal.Op
	}
	inputs := make([]walInput, 0, len(frozen))
	for _, name := range frozen {
		data, err := fs.ReadFile(name)
		if err != nil {
			return nil, st, fmt.Errorf("checkpointd: frozen WAL %s: %w", name, err)
		}
		in := walInput{name: name}
		res, err := wal.Scan(data, func(op wal.Op) {
			if op.Delete {
				deleted[op.Seq] = false
			} else {
				in.ops = append(in.ops, op)
			}
		})
		if err != nil {
			return nil, st, fmt.Errorf("checkpointd: frozen WAL %s: %w", name, err)
		}
		if res.Torn {
			return nil, st, fmt.Errorf("%w: checkpointd: frozen WAL %s has a torn tail (%d clean bytes)",
				wal.ErrCorrupt, name, res.GoodLen)
		}
		st.FrozenRecords += int64(res.Records)
		inputs = append(inputs, in)
	}

	var entries []segment.Entry
	keep := func(e segment.Entry) {
		if _, dead := deleted[e.Seq]; dead {
			deleted[e.Seq] = true
			st.DeletesApplied++
			return
		}
		entries = append(entries, e)
	}
	for _, ref := range segs {
		got, err := segment.Read(fs, ref.Name)
		if err != nil {
			return nil, st, fmt.Errorf("checkpointd: %w", err)
		}
		if int64(len(got)) != ref.Count {
			return nil, st, fmt.Errorf("%w: checkpointd: segment %s holds %d entries, manifest says %d",
				segment.ErrCorrupt, ref.Name, len(got), ref.Count)
		}
		for _, e := range got {
			keep(e)
		}
	}
	for _, in := range inputs {
		for _, op := range in.ops {
			keep(segment.Entry{Key: op.Key, Seq: op.Seq, Value: op.Value})
		}
	}
	for _, matched := range deleted {
		if !matched {
			st.UnknownDeletes++
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Key != entries[j].Key {
			return entries[i].Key < entries[j].Key
		}
		return entries[i].Seq < entries[j].Seq
	})
	st.Entries = int64(len(entries))

	var refs []segment.Ref
	var staged []string
	abort := func(err error) ([]segment.Ref, CompactStats, error) {
		for _, n := range staged {
			fs.Remove(n)
		}
		return nil, st, err
	}
	for off := 0; off < len(entries); off += chunk {
		part := entries[off:min(off+chunk, len(entries))]
		name := nextSeg()
		if err := segment.Write(fs, name, part); err != nil {
			return abort(err)
		}
		staged = append(staged, name)
		refs = append(refs, segment.Ref{Name: name, Count: int64(len(part))})
	}
	return refs, st, nil
}

// Policy is the scheduler's trigger configuration.
type Policy struct {
	// MaxWALBytes triggers a checkpoint once the live WAL exceeds this many
	// bytes (0 disables the size trigger).
	MaxWALBytes int64
	// MaxAge triggers a checkpoint once this much time has passed since the
	// last one while un-checkpointed work exists (0 disables the age
	// trigger).
	MaxAge time.Duration
	// Poll is the trigger evaluation cadence; 0 derives it from the other
	// fields (a quarter of MaxAge, clamped to [10ms, 1s]). The first
	// evaluation runs as the scheduler starts, not one Poll later.
	Poll time.Duration
	// GCEvery is the orphan-sweep cadence (0 = every 16th poll).
	GCEvery time.Duration
}

// Hooks connects a Scheduler to its queue. Every hook is called from the
// scheduler goroutine only.
type Hooks struct {
	// WALBytes reports the live WAL's current size plus any un-compacted
	// frozen backlog — the "work exists" signal both triggers gate on.
	WALBytes func() int64
	// Checkpoint runs one full checkpoint (rotate + compact + commit).
	Checkpoint func() error
	// SweepOrphans removes files named by no committed manifest and returns
	// how many it removed.
	SweepOrphans func() int
}

// SchedStats is a snapshot of a Scheduler's counters.
type SchedStats struct {
	// Runs counts completed automatic checkpoints; Failures counts attempts
	// that returned an error.
	Runs     int64
	Failures int64
	// OrphansRemoved sums the results of the timed orphan sweeps.
	OrphansRemoved int64
}

// Scheduler drives automatic checkpoints: a single goroutine polls the
// triggers and runs Checkpoint/SweepOrphans when they fire. It never runs
// two checkpoints concurrently (there is one goroutine), and the queue's
// own checkpoint mutex serializes it against manual Checkpoint calls.
type Scheduler struct {
	policy Policy
	hooks  Hooks
	stop   chan struct{}
	done   chan struct{}

	runs     atomic.Int64
	failures atomic.Int64
	orphans  atomic.Int64

	mu      sync.Mutex
	lastErr error
}

// Start launches the scheduler goroutine. Policy with neither trigger set
// still sweeps orphans on the GC cadence.
func Start(p Policy, h Hooks) *Scheduler {
	if p.Poll <= 0 {
		p.Poll = time.Second
		if p.MaxAge > 0 {
			p.Poll = max(p.MaxAge/4, 10*time.Millisecond)
		}
		p.Poll = min(p.Poll, time.Second)
	}
	if p.GCEvery <= 0 {
		p.GCEvery = 16 * p.Poll
	}
	s := &Scheduler{policy: p, hooks: h, stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

// Stop terminates the scheduler, waiting for an in-flight checkpoint to
// finish. It is idempotent and safe to call before Close tears the queue
// down.
func (s *Scheduler) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	<-s.done
}

// Stats returns the cumulative scheduler counters.
func (s *Scheduler) Stats() SchedStats {
	return SchedStats{
		Runs:           s.runs.Load(),
		Failures:       s.failures.Load(),
		OrphansRemoved: s.orphans.Load(),
	}
}

// LastErr returns the most recent checkpoint failure (nil after a success).
func (s *Scheduler) LastErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *Scheduler) loop() {
	defer close(s.done)
	tick := time.NewTicker(s.policy.Poll)
	defer tick.Stop()
	lastRun := time.Now()
	lastGC := time.Now()
	// Evaluate before the first wait: a queue reopened over a WAL already
	// past MaxWALBytes checkpoints at once. A process that crashes again
	// within one Poll of every start would otherwise never checkpoint, and
	// each recovery would replay a longer frozen chain than the last.
	for {
		work := s.hooks.WALBytes()
		due := false
		if s.policy.MaxWALBytes > 0 && work >= s.policy.MaxWALBytes {
			due = true
		}
		if s.policy.MaxAge > 0 && work > 0 && time.Since(lastRun) >= s.policy.MaxAge {
			due = true
		}
		if due {
			// Reset on attempt, not success: a dead WAL fails every
			// checkpoint, and hot-looping it would burn the core the
			// scheduler exists to keep free.
			lastRun = time.Now()
			err := s.hooks.Checkpoint()
			s.mu.Lock()
			s.lastErr = err
			s.mu.Unlock()
			if err != nil {
				s.failures.Add(1)
			} else {
				s.runs.Add(1)
			}
		}
		if time.Since(lastGC) >= s.policy.GCEvery {
			lastGC = time.Now()
			s.orphans.Add(int64(s.hooks.SweepOrphans()))
		}
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
	}
}
