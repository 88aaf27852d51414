package sharedlsm

import (
	"klsm/internal/block"
	"klsm/internal/item"
)

// owedKeep bounds the capacity an emptied obligation list keeps for reuse:
// one merge of a large block can owe every dead item in it, and a list
// that grew for it should not pin that much memory afterwards.
const owedKeep = 1 << 16

// owedRun is one winning push's obligations: the next n entries of an
// owedQueue, tagged with the epoch of the push's CAS.
type owedRun struct {
	epoch uint64
	n     int
}

// owedQueue holds transfer obligations — the references a winning
// attempt's donors held that no published block took over — in runs, one
// per push, first in first out. Its storage is reused, so parking and
// releasing obligations allocates nothing in the steady state. A cursor
// keeps one for the obligations it has not yet handed to the limbo, and
// the limbo keeps one for the obligations awaiting epoch quiescence.
type owedQueue[V any] struct {
	items []*item.Item[V]
	runs  []owedRun
	// head and rhead count the released prefix of items and runs.
	head, rhead int
}

// len returns the number of obligations held.
func (q *owedQueue[V]) len() int { return len(q.items) - q.head }

// add appends the obligations in items as one run tagged epoch. Past
// maxRuns runs it folds them into the newest run instead, which then waits
// for the later of the two epochs: a later release, never an earlier one.
func (q *owedQueue[V]) add(items []*item.Item[V], epoch uint64, maxRuns int) {
	q.items = append(q.items, items...)
	if n := len(q.runs); n-q.rhead >= maxRuns {
		q.runs[n-1].n += len(items)
		q.runs[n-1].epoch = max(q.runs[n-1].epoch, epoch)
		return
	}
	q.runs = append(q.runs, owedRun{epoch: epoch, n: len(items)})
}

// release releases, through pool, the runs at the head of the queue whose
// epoch is at most stamp. Runs are released in order, so a run parked after
// a later-epoch one waits for it; each run's epoch only ever bounds its
// release from below.
func (q *owedQueue[V]) release(stamp uint64, pool *block.Pool[V]) {
	for q.rhead < len(q.runs) && q.runs[q.rhead].epoch <= stamp {
		run := q.items[q.head : q.head+q.runs[q.rhead].n]
		for _, it := range run {
			pool.Release(it)
		}
		q.head += len(run)
		q.rhead++
	}
	if q.rhead == len(q.runs) {
		q.reset()
	} else if q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.runs = q.runs[:copy(q.runs, q.runs[q.rhead:])]
		q.head, q.rhead = 0, 0
	}
}

// reset empties the queue, forgetting its obligations.
func (q *owedQueue[V]) reset() {
	q.items = emptyOwed(q.items)
	q.runs = q.runs[:0]
	q.head, q.rhead = 0, 0
}

// emptyOwed empties an obligation list for reuse, dropping its storage if
// it grew past owedKeep.
func emptyOwed[V any](s []*item.Item[V]) []*item.Item[V] {
	if cap(s) > owedKeep {
		return nil
	}
	clear(s)
	return s[:0]
}
