package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"klsm"
)

// serve-wal drives a persistent klsmd server process over loopback HTTP in
// an open loop: serveSenders senders together send serveRate requests per
// second on a fixed schedule, whether or not earlier requests have been
// answered, as independent users would. Half are enqueues of serveBatch
// uniform keys and half dequeues of up to serveBatch items, on serveTopics
// topics. A request is timed from when it was due, so a stall also delays
// the requests queued behind it. A 200 on an enqueue means the keys are
// durable (group commit), and a dequeue answers only after its deletes are
// synced, so every request pays for the WAL. After measurement the server
// is stopped, restarted on the same directory, and drained: what recovery
// brings back must be exactly what was acknowledged and not dequeued.
//
// The rate is about a third of what eight closed-loop clients reached on
// two CPUs. A closed loop saturated both CPUs, and host steal of 2-18% then
// moved its throughput and latency by 20-30% from run to run.
const (
	serveShards  = 4
	serveSenders = 16
	serveRate    = 2000
	serveBatch   = 16
	serveTopics  = 16
	servePrefill = 200_000
	// serveCheckpointBytes is the per-shard WAL size that triggers an
	// automatic checkpoint: klsmd's default, pinned so that a new default
	// does not change the workload. A run does not reach it.
	serveCheckpointBytes = 64 << 20
)

// server is a running klsmd child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *tailBuffer
	done chan error
}

// tailBuffer keeps the last lines a child wrote, for diagnostics.
type tailBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 20 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}

// startServer launches klsmd on dir and waits until it serves.
func startServer(bin, dir string) (*server, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-shards", strconv.Itoa(serveShards),
		"-dir", dir,
		"-checkpoint-wal-bytes", strconv.Itoa(serveCheckpointBytes))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(cpus))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting klsmd: %w", err)
	}
	s := &server{cmd: cmd, log: &tailBuffer{}, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			s.log.add(line)
			if _, a, ok := strings.Cut(line, "serving on http://"); ok {
				a, _, _ = strings.Cut(a, " ")
				addr <- a
			}
		}
		s.done <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
		return s, nil
	case err := <-s.done:
		s.done <- err
		return nil, fmt.Errorf("klsmd exited before serving (%v):\n%s", err, s.log)
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("klsmd did not start serving:\n%s", s.log)
	}
}

// stop shuts the server down gracefully (SIGTERM: drain requests, flush,
// fsync, close) and waits for it to exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("klsmd exited with %v:\n%s", err, s.log)
		}
		return nil
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("klsmd did not stop within 60s:\n%s", s.log)
	}
}

// kill ends the server without grace and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// cpuTime returns the user plus system CPU time the server has used.
func (s *server) cpuTime() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks of 1/100 s.
	_, rest, _ := bytes.Cut(b, []byte(") "))
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// client is an HTTP client for the klsmd API with keep-alive connections
// for every sender.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 4 * serveSenders, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// payload is the value stored with key: derived from it, so every payload
// that comes back can be checked.
func payload(key uint64) string { return strconv.FormatUint(mix64(key)&0xffffffff, 16) }

func appendEnqueue(buf []byte, topic int, keys []uint64) []byte {
	buf = append(buf[:0], `{"topic":"t`...)
	buf = strconv.AppendInt(buf, int64(topic), 10)
	buf = append(buf, `","items":[`...)
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"key":`...)
		buf = strconv.AppendUint(buf, k, 10)
		buf = append(buf, `,"value":"`...)
		buf = append(buf, payload(k)...)
		buf = append(buf, `"}`...)
	}
	return append(buf, "]}"...)
}

func appendDequeue(buf []byte, topic, max int) []byte {
	buf = append(buf[:0], `{"topic":"t`...)
	buf = strconv.AppendInt(buf, int64(topic), 10)
	buf = append(buf, `","max":`...)
	buf = strconv.AppendInt(buf, int64(max), 10)
	return append(buf, '}')
}

type wireItem struct {
	Key   uint64 `json:"key"`
	Value string `json:"value"`
}

// post sends body to path and decodes the JSON reply into out (nil
// discards it). trace, when non-nil, is attached to the request.
func (c *client) post(path string, body []byte, out any, trace *httptrace.ClientTrace) error {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), trace))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: http %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *client) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: http %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// statsz is the part of klsmd's /statsz document the benchmark reads.
type statsz struct {
	Enqueued int64 `json:"enqueued"`
	Dequeued int64 `json:"dequeued"`
	Size     int64 `json:"size"`
	Shards   []struct {
		Flushes int64       `json:"flushes"`
		Queue   klsm.Stats  `json:"queue"`
		Persist walCounters `json:"persist"`
	} `json:"shards"`
}

// walCounters are the WAL counters of a shard's persist block.
type walCounters struct{ WALAppends, WALFsyncs, WALWrites int64 }

// totals sums the shard rows: flusher rounds, the engine counters the
// benchmark reports, and the WAL counters.
func (s statsz) totals() (flushes int64, q klsm.Stats, w walCounters) {
	for _, sh := range s.Shards {
		flushes += sh.Flushes
		q.Inserted += sh.Queue.Inserted
		q.Deleted += sh.Queue.Deleted
		q.Merges += sh.Queue.Merges
		q.Overflows += sh.Queue.Overflows
		q.SpyCalls += sh.Queue.SpyCalls
		q.SharedInsertRetries += sh.Queue.SharedInsertRetries
		q.WindowBuilds += sh.Queue.WindowBuilds
		q.WindowItems += sh.Queue.WindowItems
		q.BufferPops += sh.Queue.BufferPops
		w.WALAppends += sh.Persist.WALAppends
		w.WALFsyncs += sh.Persist.WALFsyncs
		w.WALWrites += sh.Persist.WALWrites
	}
	return flushes, q, w
}

// serveClient is one sender's inputs and tallies.
type serveClient struct {
	c   *client
	rng *rng
	rec *recorder
	// id places the sender's requests in the shared schedule.
	id int

	enqueued, dequeued ledger
	attempted, failed  int64
	corrupt            int64
	// wait and total sum, over traced requests, the time between the
	// request being written and the first response byte, and the whole
	// request time.
	wait, total time.Duration
	err         error
}

// serveSubRun starts one klsmd on a fresh directory, prefills and measures
// it, then restarts it to check what recovery brings back.
func serveSubRun(cfg config, seed uint64, out *outcome) error {
	if cfg.klsmd == "" || cfg.workdir == "" {
		return errors.New("-klsmd and -workdir are required")
	}
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("klsmd-%x", seed))
	defer os.RemoveAll(dir)
	start := time.Now()
	srv, err := startServer(cfg.klsmd, dir)
	if err != nil {
		return err
	}
	prefill, err := servePrefillKeys(newClient(srv.base), seed)
	if err != nil {
		srv.kill()
		return err
	}
	out.setup = append(out.setup, time.Since(start))

	ph := newPhase(cfg.seconds)
	c := newClient(srv.base)
	clients := make([]*serveClient, serveSenders)
	var wg sync.WaitGroup
	for i := range clients {
		sc := &serveClient{c: c, rng: newRNG(seed, uint64(300+i)), rec: newRecorder(ph), id: i}
		clients[i] = sc
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.run(ph, cfg.trace)
		}()
	}
	var (
		st0, st1     statsz
		cpu0, cpu1   time.Duration
		wall0, wall1 time.Time
		err0, err1   error
	)
	steal := ph.watch(
		func() { cpu0, wall0, err0 = srv.cpuTime(), time.Now(), c.get("/statsz", &st0) },
		func() { cpu1, wall1, err1 = srv.cpuTime(), time.Now(), c.get("/statsz", &st1) })
	wg.Wait()
	if err := errors.Join(err0, err1); err != nil {
		srv.kill()
		return err
	}

	var recs []*recorder
	var enqueued, dequeued ledger
	var wait, total time.Duration
	for _, sc := range clients {
		recs = append(recs, sc.rec)
		enqueued.merge(sc.enqueued)
		dequeued.merge(sc.dequeued)
		out.attempted += sc.attempted
		out.failed += sc.failed
		wait += sc.wait
		total += sc.total
		if sc.corrupt > 0 {
			out.correct = false
			logf("serve-wal: %d dequeued payloads did not match their keys", sc.corrupt)
		}
		if sc.err != nil {
			logf("serve-wal: client error: %v", sc.err)
		}
	}
	out.addWindows(ph, recs, steal)

	f0, q0, w0 := st0.totals()
	f1, q1, w1 := st1.totals()
	wall := wall1.Sub(wall0).Seconds()
	out.addLayer("server_keys_per_flush", ratio(float64(st1.Enqueued-st0.Enqueued), float64(f1-f0)))
	out.addLayer("server_wait_share", ratio(wait.Seconds(), total.Seconds()))
	out.addLayer("server_cpus", ratio((cpu1-cpu0).Seconds(), wall))
	out.addLayer("wal_records_per_fsync", ratio(float64(w1.WALAppends-w0.WALAppends), float64(w1.WALFsyncs-w0.WALFsyncs)))
	out.addLayer("wal_records_per_write", ratio(float64(w1.WALAppends-w0.WALAppends), float64(w1.WALWrites-w0.WALWrites)))
	out.addLayer("wal_fsyncs_per_s", ratio(float64(w1.WALFsyncs-w0.WALFsyncs), wall))
	out.engineLayers(q0, q1)

	// Correctness: the quiescent server's counters must balance, and after
	// a restart on the same directory the recovered queue must hold
	// exactly the keys acknowledged and not dequeued.
	var fin statsz
	if err := c.get("/statsz", &fin); err != nil {
		srv.kill()
		return err
	}
	if fin.Enqueued != fin.Dequeued+fin.Size {
		out.correct = false
		logf("serve-wal: /statsz does not balance: enqueued %d != dequeued %d + size %d", fin.Enqueued, fin.Dequeued, fin.Size)
	}
	if err := srv.stop(); err != nil {
		return err
	}
	start = time.Now()
	if srv, err = startServer(cfg.klsmd, dir); err != nil {
		return err
	}
	logf("serve-wal: restart with recovery took %v", time.Since(start))
	got, corrupt, err := drainAll(newClient(srv.base))
	if err != nil {
		srv.kill()
		return err
	}
	if err := srv.stop(); err != nil {
		return err
	}
	enqueued.merge(prefill)
	want := enqueued.minus(dequeued)
	if corrupt > 0 {
		out.correct = false
		logf("serve-wal: %d drained payloads did not match their keys", corrupt)
	}
	if got != want {
		out.correct = false
		logf("serve-wal: recovered %v, expected %v", got, want)
	}
	logf("serve-wal: recovered and drained %d keys", got.n)
	return nil
}

// servePrefillKeys enqueues servePrefill keys over cpus connections in
// batches of 512 and returns their ledger.
func servePrefillKeys(c *client, seed uint64) (ledger, error) {
	const batch = 512
	var (
		mu   sync.Mutex
		all  ledger
		errs []error
		wg   sync.WaitGroup
	)
	for i := 0; i < cpus; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := newRNG(seed, uint64(i))
			var l ledger
			var body []byte
			keys := make([]uint64, batch)
			for left := servePrefill / cpus; left > 0; left -= batch {
				keys = keys[:min(batch, left)]
				for j := range keys {
					keys[j] = r.next()
				}
				body = appendEnqueue(body, r.intn(serveTopics), keys)
				if err := c.post("/v1/enqueue", body, nil, nil); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
				for _, k := range keys {
					l.add(k)
				}
			}
			mu.Lock()
			all.merge(l)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, errors.Join(errs...)
}

// run sends this sender's share of the schedule until measurement ends:
// request i of sender id is due at warm-up start + (i·serveSenders+id)/serveRate.
func (sc *serveClient) run(ph phase, tracing bool) {
	end := ph.end()
	begin := ph.start.Add(-warmup)
	keys := make([]uint64, serveBatch)
	var (
		body  []byte
		reply struct {
			Items []wireItem `json:"items"`
		}
		wrote, first time.Time
		trace        *httptrace.ClientTrace
	)
	if tracing {
		trace = &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { first = time.Now() },
		}
	}
	for i := 0; ; i++ {
		start := begin.Add(time.Duration(i*serveSenders+sc.id) * time.Second / serveRate)
		if !start.Before(end) {
			return
		}
		sleepUntil(start)
		topic := sc.rng.intn(serveTopics)
		insert := sc.rng.next()&1 == 0
		var err error
		if insert {
			for i := range keys {
				keys[i] = sc.rng.next()
			}
			body = appendEnqueue(body, topic, keys)
			err = sc.c.post("/v1/enqueue", body, nil, trace)
		} else {
			reply.Items = reply.Items[:0]
			body = appendDequeue(body, topic, serveBatch)
			err = sc.c.post("/v1/dequeue", body, &reply, trace)
		}
		done := time.Now()
		d := done.Sub(start)

		// Keys move the ledgers whether or not the request was measured.
		var moved int64
		failed := err != nil
		switch {
		case err != nil:
			if sc.err == nil {
				sc.err = err
			}
		case insert:
			for _, k := range keys {
				sc.enqueued.add(k)
			}
			moved = serveBatch
		default:
			for _, it := range reply.Items {
				if it.Value != payload(it.Key) {
					sc.corrupt++
				}
				sc.dequeued.add(it.Key)
			}
			moved = int64(len(reply.Items))
			failed = moved < serveBatch
		}
		win := ph.window(start)
		if win < 0 || win >= ph.n {
			continue
		}
		sc.attempted++
		if failed {
			sc.failed++
		}
		sc.rec.count(ph.window(done), moved)
		sc.rec.sample(latE2E, win, d)
		if insert {
			sc.rec.sample(latInsert, win, d)
		} else {
			sc.rec.sample(latDelete, win, d)
		}
		if tracing && err == nil && !wrote.IsZero() && first.After(wrote) {
			sc.wait += first.Sub(wrote)
			sc.total += d
		}
		wrote, first = time.Time{}, time.Time{}
	}
}

// drainAll empties the server through the streaming global drain and
// returns the ledger of what came out and how many payloads were wrong.
func drainAll(c *client) (ledger, int64, error) {
	var l ledger
	var corrupt int64
	resp, err := c.hc.Get(c.base + "/v1/drain?topic=*&batch=4096")
	if err != nil {
		return l, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return l, 0, fmt.Errorf("drain: http %d", resp.StatusCode)
	}
	dec := json.NewDecoder(bufio.NewReaderSize(resp.Body, 1<<16))
	for {
		var line struct {
			Key     *uint64 `json:"key"`
			Value   string  `json:"value"`
			Drained *int64  `json:"drained"`
		}
		if err := dec.Decode(&line); err != nil {
			return l, corrupt, fmt.Errorf("drain stream: %w", err)
		}
		switch {
		case line.Drained != nil:
			if uint64(*line.Drained) != l.n {
				return l, corrupt, fmt.Errorf("drain summary says %d, stream had %d", *line.Drained, l.n)
			}
			return l, corrupt, nil
		case line.Key == nil:
			return l, corrupt, errors.New("drain stream: line without key or summary")
		}
		if line.Value != payload(*line.Key) {
			corrupt++
		}
		l.add(*line.Key)
	}
}
