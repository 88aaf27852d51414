package klsm

import "time"

// options collects the non-generic configuration set by Option values.
type options struct {
	k int

	// Durability (read by Open only).
	syncInterval time.Duration
	ckptWALBytes int64
	ckptInterval time.Duration
}

// Option configures New and Open. New reads only WithRelaxation; the
// durability options take effect through Open.
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

// WithSyncInterval sets the WAL group-commit policy: an fsync is issued at
// most d after an unsynced append, bounding how long an unacknowledged
// operation can linger (default 2ms; 0 disables timer-based syncing,
// leaving only explicit Sync and Close). Smaller intervals tighten the
// durability window and cost proportionally more fsyncs; group commit means
// each fsync still covers every record appended since the previous one.
func WithSyncInterval(d time.Duration) Option {
	return func(o *options) {
		o.syncInterval = d
		if d <= 0 {
			o.syncInterval = -1 // explicit off; resolveOptions maps to 0
		}
	}
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
