package klsm

import (
	"time"

	"klsm/internal/core"
)

// options collects the non-generic configuration set by Option values.
type options struct {
	k             int
	mode          core.Mode
	localOrdering bool

	// Durability (Open-only; New panics when persistDir is set).
	persistDir   string
	syncEvery    int
	syncInterval time.Duration
	walBuffer    int
	walCoalesce  int
	ckptWALBytes int64
	ckptInterval time.Duration
}

// Option configures New.
//
// One configuration knob deliberately does not travel through Option: the
// merge filter (lazy-deletion callback), whose type is generic in V. Wire it
// at construction with NewWithDrop / NewOrderedWithDrop.
type Option func(*options)

// WithRelaxation sets the relaxation parameter k: TryDeleteMin returns one
// of the T·k+1 smallest keys, T being the number of handles. k = 0 yields
// the strictest ordering (and the least scalability). Panics are deferred
// to New for negative k.
func WithRelaxation(k int) Option {
	return func(o *options) { o.k = k }
}

// WithDistributedOnly selects the standalone distributed LSM (the DLSM
// configuration in the paper's Figure 3): thread-local queues with
// non-destructive spying. It scales best but provides only local ordering —
// no global relaxation bound.
func WithDistributedOnly() Option {
	return func(o *options) { o.mode = core.DistOnly }
}

// WithSharedOnly bypasses insertion batching: every insert goes directly to
// the shared k-LSM. Mostly useful for benchmarking the shared component in
// isolation.
func WithSharedOnly() Option {
	return func(o *options) { o.mode = core.SharedOnly }
}

// WithoutLocalOrdering disables the Bloom-filter check that guarantees a
// handle never skips its own keys. The ρ = T·k bound still holds. This
// exists for the ablation benchmarks; applications should keep local
// ordering on.
func WithoutLocalOrdering() Option {
	return func(o *options) { o.localOrdering = false }
}

// WithPersistence declares the directory a persistent queue lives in. It is
// default-off and only meaningful through Open, which already takes the
// directory — the option exists so option lists can be built and passed
// around uniformly. New panics when it is set, directing callers to Open:
// the value codec persistence requires is generic and cannot travel through
// the non-generic Option type.
func WithPersistence(dir string) Option {
	return func(o *options) { o.persistDir = dir }
}

// WithSyncEvery sets the count half of the WAL group-commit policy: an
// fsync is issued once this many records have been appended since the last
// one (0 disables count-based syncing; the default). Explicit Sync calls
// and Close always force an fsync regardless.
func WithSyncEvery(n int) Option {
	return func(o *options) { o.syncEvery = n }
}

// WithSyncInterval sets the time half of the WAL group-commit policy: an
// fsync is issued at most d after an unsynced append, bounding how long an
// unacknowledged operation can linger (default 2ms; 0 disables timer-based
// syncing, leaving only WithSyncEvery, explicit Sync and Close). Smaller
// intervals tighten the durability window and cost proportionally more
// fsyncs; group commit means each fsync still covers every record appended
// since the previous one.
func WithSyncInterval(d time.Duration) Option {
	return func(o *options) {
		o.syncInterval = d
		if d <= 0 {
			o.syncInterval = -1 // explicit off; resolveOptions maps to 0
		}
	}
}

// WithWALBuffer sets the WAL's in-memory pending-buffer high-water mark in
// bytes (default 4 MiB): appends block — in memory, never on disk — once
// this much encoded data awaits the background writer.
func WithWALBuffer(bytes int) Option {
	return func(o *options) { o.walBuffer = bytes }
}

// WithWriteCoalesce sets the WAL writer's batch growth target in bytes
// (default 256 KiB): after taking a batch, the writer keeps folding in
// records that mutators appended meanwhile until the batch reaches this
// size or no more are waiting, then issues one write() for the whole run.
// Coalescing never delays a record — it only gathers work that already
// exists — so larger values trade nothing but memory for fewer syscalls.
// Negative disables coalescing (one write per buffer swap).
func WithWriteCoalesce(bytes int) Option {
	return func(o *options) { o.walCoalesce = bytes }
}

// WithAutoCheckpoint enables the automatic checkpoint scheduler on a queue
// opened by Open: a background goroutine checkpoints once the live WAL
// exceeds maxWALBytes (0 disables the size trigger) or maxAge has passed
// since the last checkpoint while unlogged-to-segment work exists (0
// disables the age trigger), and sweeps orphaned files on a timer. Both
// zero — the default — leaves checkpointing fully manual. The triggers are
// first checked as Open returns, so a queue reopened over a WAL already
// past maxWALBytes checkpoints at once. Automatic
// checkpoints run concurrently with queue operations (see Checkpoint) and
// bound recovery cost for long-running queues: replay work stays
// proportional to the live items plus one WAL's worth of tail, not to the
// operation history.
func WithAutoCheckpoint(maxWALBytes int64, maxAge time.Duration) Option {
	return func(o *options) {
		o.ckptWALBytes = maxWALBytes
		o.ckptInterval = maxAge
	}
}
