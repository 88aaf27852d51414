package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"klsm"
	"klsm/internal/walfault"
)

// Config parameterizes a Server.
type Config struct {
	// Shards is the number of queue shards S (default 4). Topics map to
	// shards by consistent hashing; the composed relaxation bound is S·T·k.
	// Placement depends on S, so a persistent deployment must reopen with
	// the same S.
	Shards int
	// Dir, when non-empty, makes every shard persistent: shard i opens
	// klsm.Open(Dir/shard-000i). Empty runs in memory.
	Dir string
	// FS, when non-nil, supplies each shard's filesystem instead of a real
	// directory: shard i opens klsm.OpenFS(FS(i), ...), and the server is
	// persistent regardless of Dir. The fault-injection tests use it to run
	// shards on a walfault.MemFS — injected fsync failures, crashes — through
	// the full HTTP stack.
	FS func(shard int) walfault.FS
	// QueueOptions configures every shard queue (relaxation, sync interval,
	// ...).
	QueueOptions []klsm.Option
	// MaxInFlightBytes bounds the summed Content-Length of requests being
	// served; beyond it new requests are rejected with 429 (default 32 MiB,
	// < 0 disables the bound).
	MaxInFlightBytes int64
	// MaxBodyBytes caps one request body (default 8 MiB).
	MaxBodyBytes int64
}

// Server is the klsmd HTTP service: S queue shards behind a consistent-hash
// router, group-commit enqueue batching, streaming drains, and per-shard
// counters at /statsz. Create with New, serve with Serve/ListenAndServe,
// stop with Shutdown (graceful: drains requests, flushes batches, closes
// every shard).
type Server struct {
	cfg    Config
	router *Router
	shards []*shardSrv

	// gmu serializes the global (cross-shard) dequeue path through gh, the
	// server's one router handle — Handle is single-goroutine like
	// klsm.Handle.
	gmu sync.Mutex
	gh  *Handle

	hs *http.Server

	inflight atomic.Int64
	rejected atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// item is the wire form of one key/payload pair.
type item struct {
	Key   uint64 `json:"key"`
	Value string `json:"value,omitempty"`
}

// enqueueRequest is the body of POST /v1/enqueue.
type enqueueRequest struct {
	Topic string `json:"topic"`
	Items []item `json:"items"`
}

// dequeueRequest is the body of POST /v1/dequeue. Topic "*" dequeues
// globally (smallest-peek shard first).
type dequeueRequest struct {
	Topic string `json:"topic"`
	Max   int    `json:"max"`
}

// New builds the server: opens (or creates) every shard queue and starts
// the per-shard flushers.
func New(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.MaxInFlightBytes == 0 {
		cfg.MaxInFlightBytes = 32 << 20
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	queues := make([]*klsm.Queue[string], cfg.Shards)
	for i := range queues {
		var q *klsm.Queue[string]
		var err error
		switch {
		case cfg.FS != nil:
			q, err = klsm.OpenFS(cfg.FS(i), fmt.Sprintf("shard-%03d", i),
				klsm.StringValue{}, cfg.QueueOptions...)
		case cfg.Dir != "":
			dir := filepath.Join(cfg.Dir, fmt.Sprintf("shard-%03d", i))
			if err = os.MkdirAll(dir, 0o755); err == nil {
				q, err = klsm.Open(dir, klsm.StringValue{}, cfg.QueueOptions...)
			}
		default:
			q = klsm.New[string](cfg.QueueOptions...)
		}
		if err != nil {
			for _, p := range queues[:i] {
				p.Close()
			}
			return nil, fmt.Errorf("server: opening shard %d: %w", i, err)
		}
		queues[i] = q
	}
	s := &Server{cfg: cfg, router: NewRouter(queues)}
	s.gh = s.router.NewHandle()
	s.shards = make([]*shardSrv, cfg.Shards)
	for i, q := range queues {
		s.shards[i] = newShardSrv(q)
	}
	s.hs = &http.Server{Handler: s.Handler()}
	return s, nil
}

// Router returns the server's in-process router (stats, embedding).
func (s *Server) Router() *Router { return s.router }

// Handler returns the server's HTTP handler (for tests and embedding; the
// Serve methods already use it).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/enqueue", s.handleEnqueue)
	mux.HandleFunc("POST /v1/dequeue", s.handleDequeue)
	mux.HandleFunc("GET /v1/drain", s.handleDrain)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return s.backpressure(mux)
}

// Serve serves on ln until Shutdown (or a listener error).
func (s *Server) Serve(ln net.Listener) error {
	err := s.hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// ShutdownHTTP runs only step 1 of Shutdown — stop accepting and drain
// in-flight requests — leaving the shards open. cmd/klsmd uses it to get a
// quiescent server for Checkpoint before the final Shutdown.
func (s *Server) ShutdownHTTP(ctx context.Context) error {
	return s.hs.Shutdown(ctx)
}

// Shutdown stops the server gracefully, in dependency order: (1) stop
// accepting and wait for in-flight requests (so no handler is mid-enqueue
// or mid-drain), (2) flush every shard's pending batch and stop its
// flusher, (3) retire the router handles, (4) Close every shard queue —
// which drives reclamation to completion and, on persistent shards,
// flushes and fsyncs the WAL, acknowledging everything. ctx bounds only
// step 1; a cancelled ctx abandons stragglers but still runs 2–4.
func (s *Server) Shutdown(ctx context.Context) error {
	httpErr := s.hs.Shutdown(ctx)
	s.closeOnce.Do(func() {
		for _, sh := range s.shards {
			sh.close()
		}
		s.gh.Close()
		for _, sh := range s.shards {
			if err := sh.q.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	if s.closeErr != nil {
		return s.closeErr
	}
	return httpErr
}

// backpressure wraps next with the in-flight byte bound: a request whose
// declared body size would push the served total past MaxInFlightBytes is
// rejected with 429 and a Retry-After hint instead of being buffered. The
// bound is admission control for memory — enqueue bursts beyond it queue in
// the clients, not in the server — and the contract the load generator
// leans on: a 429 is retryable by definition, nothing was enqueued.
// Bodies above MaxBodyBytes draw 413; POSTs must declare Content-Length
// (411) so admission happens before any buffering.
func (s *Server) backpressure(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := r.ContentLength
		if r.Method == http.MethodPost {
			if n < 0 {
				http.Error(w, "Content-Length required", http.StatusLengthRequired)
				return
			}
			if n > s.cfg.MaxBodyBytes {
				http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
				return
			}
		}
		if n > 0 && s.cfg.MaxInFlightBytes > 0 {
			if s.inflight.Add(n) > s.cfg.MaxInFlightBytes {
				s.inflight.Add(-n)
				s.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				http.Error(w, "overloaded: in-flight byte budget exhausted", http.StatusTooManyRequests)
				return
			}
			defer s.inflight.Add(-n)
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		next.ServeHTTP(w, r)
	})
}

// handleEnqueue appends the request's items to its shard's pending batch
// and responds once the flush covering them has completed — on persistent
// shards, once the covering Sync returned nil, so a 200 acknowledges
// durability (see shardSrv).
func (s *Server) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	var req enqueueRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Topic == "" || req.Topic == "*" {
		http.Error(w, "bad request: enqueue needs a concrete topic", http.StatusBadRequest)
		return
	}
	if len(req.Items) == 0 {
		writeJSON(w, map[string]int{"acked": 0})
		return
	}
	keys := make([]uint64, len(req.Items))
	vals := make([]string, len(req.Items))
	for i, it := range req.Items {
		keys[i] = it.Key
		vals[i] = it.Value
	}
	sh := s.shards[s.router.Shard(req.Topic)]
	if err := sh.enqueue(keys, vals); err != nil {
		http.Error(w, "enqueue: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, map[string]int{"acked": len(keys)})
}

// handleDequeue pops up to max items and responds after the deletes are
// synced, so returned items never reappear after a crash (unacknowledged
// pops may — at-least-once, the klsm delete contract over HTTP).
func (s *Server) handleDequeue(w http.ResponseWriter, r *http.Request) {
	var req dequeueRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Max <= 0 {
		req.Max = 1
	}
	if req.Max > 64<<10 {
		req.Max = 64 << 10
	}
	kvs, err := s.pop(req.Topic, nil, req.Max)
	if err != nil {
		http.Error(w, "dequeue: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	items := make([]item, len(kvs))
	for i, kv := range kvs {
		items[i] = item{Key: kv.Key, Value: kv.Value}
	}
	writeJSON(w, map[string][]item{"items": items})
}

// pop removes up to n items for topic ("*" = global smallest-peek-first)
// and syncs the covering deletes before returning them.
func (s *Server) pop(topic string, dst []klsm.KV[uint64, string], n int) ([]klsm.KV[uint64, string], error) {
	if topic == "" {
		return nil, errors.New("dequeue needs a topic (or \"*\" for global)")
	}
	if topic == "*" {
		s.gmu.Lock()
		for len(dst) < n {
			k, v, ok := s.gh.DeleteMinGlobal()
			if !ok {
				break
			}
			dst = append(dst, klsm.KV[uint64, string]{Key: k, Value: v})
		}
		s.gmu.Unlock()
		if err := s.syncAll(); err != nil {
			return dst, err
		}
		// Global pops span shards; attribute them to the shard of each key's
		// origin is unknowable here, so count them on shard 0's dequeued
		// total — the conservation identity in /statsz sums over shards.
		s.shards[0].dequeued.Add(int64(len(dst)))
		return dst, nil
	}
	sh := s.shards[s.router.Shard(topic)]
	dst = sh.q.DrainMin(dst, n)
	if err := sh.q.Sync(); err != nil {
		return dst, err
	}
	sh.dequeued.Add(int64(len(dst)))
	return dst, nil
}

// syncAll syncs every shard (the global pop path cannot know which shards
// its deletes landed on).
func (s *Server) syncAll() error {
	for _, sh := range s.shards {
		if err := sh.q.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// handleDrain streams items as NDJSON until the queue (or the max= budget)
// is exhausted: batches of batch= items (default 256) are popped, synced,
// then written and flushed, so every line the client has read is a durable
// delete. The final line is a summary object {"drained":N} — its presence
// tells the client the stream ended cleanly rather than mid-crash.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	topic := q.Get("topic")
	max := int64(1) << 62
	if v := q.Get("max"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			http.Error(w, "bad max", http.StatusBadRequest)
			return
		}
		max = n
	}
	batch := 256
	if v := q.Get("batch"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > 64<<10 {
			http.Error(w, "bad batch", http.StatusBadRequest)
			return
		}
		batch = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var drained int64
	var dst []klsm.KV[uint64, string]
	for drained < max {
		n := batch
		if rem := max - drained; rem < int64(n) {
			n = int(rem)
		}
		var err error
		dst, err = s.pop(topic, dst[:0], n)
		if err != nil {
			// Mid-stream failure: the summary line never arrives, which is
			// the signal; the status line already went out as 200.
			return
		}
		for _, kv := range dst {
			if err := enc.Encode(item{Key: kv.Key, Value: kv.Value}); err != nil {
				return
			}
		}
		drained += int64(len(dst))
		if flusher != nil {
			flusher.Flush()
		}
		if len(dst) < n {
			break
		}
	}
	enc.Encode(map[string]int64{"drained": drained})
}

// ShardStats is one shard's row in the /statsz document.
type ShardStats struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Size is the shard's current (approximate while busy) key count.
	Size int `json:"size"`
	// Enqueued counts acknowledged inserted items, Dequeued items returned
	// by dequeue/drain responses, Flushes group-commit flusher rounds.
	Enqueued int64 `json:"enqueued"`
	// Dequeued counts items returned by dequeue/drain responses.
	Dequeued int64 `json:"dequeued"`
	// Flushes counts completed flusher rounds (each is >= 1 InsertBatch
	// publication plus at most one Sync).
	Flushes int64 `json:"flushes"`
	// SyncFails counts flusher rounds whose covering Sync failed: the
	// round's items were published (and counted in Enqueued) but the
	// enqueuers were answered with the error instead of a 200.
	SyncFails int64 `json:"sync_fails,omitempty"`
	// Queue is the shard's structural counter snapshot.
	Queue klsm.Stats `json:"queue"`
	// Persist is the shard's durability counters; nil on volatile shards.
	Persist *klsm.PersistStats `json:"persist,omitempty"`
}

// Statsz is the /statsz document.
type Statsz struct {
	// Shards is the per-shard breakdown.
	Shards []ShardStats `json:"shards"`
	// Enqueued, Dequeued and Size are the shard sums; when the server is
	// quiescent they satisfy Enqueued == Dequeued + Size (the conservation
	// identity the smoke test asserts).
	Enqueued int64 `json:"enqueued"`
	// Dequeued is the shard sum of dequeued items.
	Dequeued int64 `json:"dequeued"`
	// Size is the shard sum of current key counts.
	Size int `json:"size"`
	// Rho is the composed relaxation bound S·T·k across shards.
	Rho int `json:"rho"`
	// InFlightBytes is the currently admitted request-body byte total.
	InFlightBytes int64 `json:"inflight_bytes"`
	// Rejected counts requests refused by the backpressure bound (429s).
	Rejected int64 `json:"rejected"`
	// Persistent reports whether the shards are durable (opened from Dir).
	Persistent bool `json:"persistent"`
}

// Stats assembles the /statsz document.
func (s *Server) Stats() Statsz {
	persistent := s.cfg.Dir != "" || s.cfg.FS != nil
	doc := Statsz{
		InFlightBytes: s.inflight.Load(),
		Rejected:      s.rejected.Load(),
		Rho:           s.router.Rho(),
		Persistent:    persistent,
	}
	for i, sh := range s.shards {
		row := ShardStats{
			Shard:     i,
			Size:      sh.q.Size(),
			Enqueued:  sh.enqueued.Load(),
			Dequeued:  sh.dequeued.Load(),
			Flushes:   sh.flushes.Load(),
			SyncFails: sh.syncFails.Load(),
			Queue:     sh.q.Stats(),
		}
		if persistent {
			ps := sh.q.PersistStats()
			row.Persist = &ps
		}
		doc.Shards = append(doc.Shards, row)
		doc.Enqueued += row.Enqueued
		doc.Dequeued += row.Dequeued
		doc.Size += row.Size
	}
	return doc
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

// writeJSON writes v as a JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// ShutdownTimeout is the default grace period cmd/klsmd gives Shutdown.
const ShutdownTimeout = 10 * time.Second
