package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"colab/internal/experiment"
)

// Options tunes a Coordinator. The zero value is production-sane.
type Options struct {
	// Shards is the number of shards the sweep is dealt into. 0 uses the
	// number of live workers at Run time (at least 1). More shards than
	// workers queue; surviving workers drain the queue.
	Shards int
	// MaxAttempts bounds how often one shard is tried before the run
	// fails (default 5). Attempts that fail fast — a worker killed between
	// heartbeats still holds its slot until the next dispatch errors —
	// count too, so the bound must absorb a retry-to-the-corpse or two.
	MaxAttempts int
	// RetryBackoff is the delay before a shard's second attempt; it
	// doubles per subsequent attempt (default 200ms).
	RetryBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 5s).
	MaxBackoff time.Duration
	// HeartbeatTimeout declares a worker dead when its last registration
	// or heartbeat is older than this (default 5s). Dead workers get no
	// new shards, and in-flight dispatches to them are cancelled and
	// reassigned; a worker that beats again is live again.
	HeartbeatTimeout time.Duration
	// WorkerWaitTimeout bounds how long Run waits with shards outstanding,
	// nothing in flight, and no live worker to dispatch to (default 60s) —
	// the whole fleet being dead should fail the run, not hang it.
	WorkerWaitTimeout time.Duration
	// HTTPClient dispatches shard requests (default http.DefaultClient;
	// per-attempt cancellation comes from contexts, so no client timeout
	// is needed and a streaming-friendly client must not set one).
	HTTPClient *http.Client
}

func (o Options) withDefaults() Options {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 5
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.WorkerWaitTimeout <= 0 {
		o.WorkerWaitTimeout = 60 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	return o
}

// WorkerInfo is one registered worker as reported by Workers and the
// /workers endpoint.
type WorkerInfo struct {
	URL string `json:"url"`
	// Live reports the worker heartbeat is fresh (within HeartbeatTimeout).
	Live bool `json:"live"`
	// Busy reports a shard is currently dispatched to the worker.
	Busy bool `json:"busy"`
	// LastBeatAge is the age of the last registration/heartbeat.
	LastBeatAge time.Duration `json:"last_beat_age_ns"`
}

type workerState struct {
	url      string
	lastBeat time.Time
	busy     bool
}

// Coordinator is the dispatching side of a fleet: it accepts worker
// registrations and liveness heartbeats over HTTP, and Run deals the
// shards of one sweep to the live workers — retrying failed shards with
// exponential backoff, reassigning a dead worker's shard to a survivor
// with the shard's checkpoint journal shipped along, and ingesting
// results idempotently so duplicate cells from retried shards are
// harmless. The assembled result is byte-identical to the same sweep run
// unsharded in one process.
//
// Endpoints (mount the Coordinator as an http.Handler):
//
//	POST /register   worker announces {"url": ...}; idempotent
//	POST /heartbeat  same body; refreshes liveness
//	GET  /workers    registered workers, JSON
//	GET  /healthz    liveness probe
//
// The registry outlives Run: workers may register before, during (they
// join the current sweep's dispatch pool immediately) or between runs.
type Coordinator struct {
	opts Options
	mux  *http.ServeMux

	mu      sync.Mutex
	workers map[string]*workerState
	running bool
}

// NewCoordinator returns a coordinator with opts applied.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{opts: opts.withDefaults(), mux: http.NewServeMux(), workers: make(map[string]*workerState)}
	c.mux.HandleFunc("/register", c.handleRegister)
	c.mux.HandleFunc("/heartbeat", c.handleRegister)
	c.mux.HandleFunc("/workers", c.handleWorkers)
	c.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return c
}

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// handleRegister serves /register and /heartbeat: both upsert the worker
// and refresh its liveness, so registration is idempotent and a
// re-registering worker revives.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	var reg registration
	if err := json.NewDecoder(r.Body).Decode(&reg); err != nil || !strings.HasPrefix(reg.URL, "http") {
		http.Error(w, "fleet: registration body must be {\"url\": \"http://...\"}", http.StatusBadRequest)
		return
	}
	url := strings.TrimRight(reg.URL, "/")
	c.mu.Lock()
	ws, ok := c.workers[url]
	if !ok {
		ws = &workerState{url: url}
		c.workers[url] = ws
	}
	ws.lastBeat = time.Now()
	c.mu.Unlock()
	fmt.Fprintln(w, "ok")
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.Workers())
}

// Workers snapshots the registry, sorted by URL.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(c.workers))
	for _, ws := range c.workers {
		out = append(out, WorkerInfo{
			URL:         ws.url,
			Live:        now.Sub(ws.lastBeat) <= c.opts.HeartbeatTimeout,
			Busy:        ws.busy,
			LastBeatAge: now.Sub(ws.lastBeat),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// liveCount returns the number of workers with fresh heartbeats.
func (c *Coordinator) liveCount() int {
	n := 0
	for _, w := range c.Workers() {
		if w.Live {
			n++
		}
	}
	return n
}

// WaitWorkers blocks until at least n workers are live or ctx is done.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	for {
		if c.liveCount() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet: waiting for %d workers (%d live): %w", n, c.liveCount(), ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// claimWorker picks a free live worker, preferring one other than
// exclude (the worker whose attempt on this shard just failed), marks it
// busy and returns it; nil when none is available.
func (c *Coordinator) claimWorker(exclude string) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	urls := make([]string, 0, len(c.workers))
	for url := range c.workers {
		urls = append(urls, url)
	}
	sort.Strings(urls) // deterministic preference order
	var fallback *workerState
	for _, url := range urls {
		ws := c.workers[url]
		if ws.busy || now.Sub(ws.lastBeat) > c.opts.HeartbeatTimeout {
			continue
		}
		if ws.url == exclude {
			fallback = ws
			continue
		}
		ws.busy = true
		return ws
	}
	if fallback != nil {
		fallback.busy = true
		return fallback
	}
	return nil
}

func (c *Coordinator) releaseWorker(url string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ws, ok := c.workers[url]; ok {
		ws.busy = false
	}
}

// isLive reports whether a worker's heartbeat is fresh (the in-flight
// dispatch watchdog polls this to abandon attempts on dead workers).
func (c *Coordinator) isLive(url string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[url]
	return ok && time.Since(ws.lastBeat) <= c.opts.HeartbeatTimeout
}

// runState is the mutable result assembly of one Run: positional,
// idempotent ingestion plus in-order observer delivery.
type runState struct {
	mu        sync.Mutex
	planned   []experiment.PlannedCell
	keys      []string // planned[i].CellKey.String(), precomputed
	seq       [][]int  // per shard: global indices, in shard order
	results   []Cell
	filled    []bool
	delivered int
	obs       func(index int, cell Cell)
	aborted   bool
}

// newRunState prepares the assembly of a sweep planned over shards.
func newRunState(planned []experiment.PlannedCell, shards int, obs func(int, Cell)) *runState {
	st := &runState{
		planned: planned,
		keys:    make([]string, len(planned)),
		seq:     make([][]int, shards),
		results: make([]Cell, len(planned)),
		filled:  make([]bool, len(planned)),
		obs:     obs,
	}
	for i, p := range planned {
		st.keys[i] = p.CellKey.String()
		st.seq[p.Shard] = append(st.seq[p.Shard], i)
	}
	return st
}

// ingestLine decodes one NDJSON line of a shard attempt's stream and
// accepts it as the shard's k-th cell. It validates the cell against the
// plan, drops duplicates from retried shards after checking they are
// bit-identical to the first ingestion, and streams newly completed
// prefix cells to the observer in global cross-product order. Every
// rejection names the worker and the shard. Safe for concurrent attempts.
func (st *runState) ingestLine(worker string, shard, k int, line []byte) error {
	var sl streamLine
	if err := json.Unmarshal(line, &sl); err != nil {
		return fmt.Errorf("fleet: worker %s shard %d sent a malformed line: %q", worker, shard, line)
	}
	if sl.Error != "" {
		return fmt.Errorf("fleet: worker %s failed shard %d: %s", worker, shard, sl.Error)
	}
	if err := st.ingest(shard, k, sl.Cell); err != nil {
		return fmt.Errorf("fleet: worker %s shard %d: %w", worker, shard, err)
	}
	return nil
}

// ingest is ingestLine's check-and-store step for one decoded cell.
func (st *runState) ingest(shard, k int, cell Cell) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.aborted {
		return fmt.Errorf("run aborted")
	}
	if k >= len(st.seq[shard]) {
		return fmt.Errorf("streamed %d cells beyond its %d-cell plan", k+1, len(st.seq[shard]))
	}
	g := st.seq[shard][k]
	want := st.planned[g]
	if cell.Key != st.keys[g] {
		return fmt.Errorf("cell %d has key %q, plan expects %q (worker ran a different spec?)", k, cell.Key, st.keys[g])
	}
	if cell.Workload != want.Key.Workload || cell.Machine != want.Key.Config || cell.Policy != want.Key.Policy || cell.Seed != want.Key.Seed {
		return fmt.Errorf("cell %d coordinates %s/%s/%s/%d do not match the plan", k, cell.Workload, cell.Machine, cell.Policy, cell.Seed)
	}
	if st.filled[g] {
		// A duplicate from a retried shard. Scores are content-addressed,
		// so a divergent duplicate means nondeterminism somewhere — refuse
		// to paper over it.
		prev := st.results[g]
		if prev.HANTT != cell.HANTT || prev.HSTP != cell.HSTP {
			return fmt.Errorf("duplicate of cell %s diverged: (%v,%v) vs (%v,%v)", cell.Key, prev.HANTT, prev.HSTP, cell.HANTT, cell.HSTP)
		}
		return nil
	}
	st.filled[g] = true
	st.results[g] = cell
	for st.delivered < len(st.filled) && st.filled[st.delivered] {
		if st.obs != nil {
			st.obs(st.delivered, st.results[st.delivered])
		}
		st.delivered++
	}
	return nil
}

// journalFor snapshots a shard's completed cells as checkpoint records —
// what a replacement worker receives so it resumes instead of recomputing.
func (st *runState) journalFor(shard int) []experiment.JournalRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	var recs []experiment.JournalRecord
	for _, g := range st.seq[shard] {
		if st.filled[g] {
			recs = append(recs, experiment.JournalRecord{Key: st.keys[g], HANTT: st.results[g].HANTT, HSTP: st.results[g].HSTP})
		}
	}
	return recs
}

func (st *runState) abort() {
	st.mu.Lock()
	st.aborted = true
	st.mu.Unlock()
}

type shardTask struct {
	shard      int
	attempts   int
	readyAt    time.Time
	lastWorker string
}

type attemptResult struct {
	shard     int
	workerURL string
	err       error
}

// Run executes one sweep across the fleet and returns every cell of it in
// the plan's cross-product order — the order an unsharded in-process run
// returns. A non-nil obs receives every cell of the full sweep exactly
// once, tagged with its global cross-product index, in that order
// (delivery is gated on all predecessors, as with the in-process
// observer). Only one Run may be active per Coordinator.
func (c *Coordinator) Run(ctx context.Context, spec Spec, obs func(index int, cell Cell)) ([]Cell, error) {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: a run is already in progress on this coordinator")
	}
	c.running = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.running = false
		c.mu.Unlock()
	}()

	shards := c.opts.Shards
	if shards <= 0 {
		// Deal one shard per live worker. An empty fleet waits here (up to
		// WorkerWaitTimeout) rather than degenerating to a 1-shard plan
		// that the first late worker would have to run whole.
		waitCtx, cancel := context.WithTimeout(ctx, c.opts.WorkerWaitTimeout)
		err := c.WaitWorkers(waitCtx, 1)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("fleet: no live workers to run on: %w", err)
		}
		shards = c.liveCount()
	}
	b, err := spec.Batch(0, shards)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	planned, err := b.Plan()
	if err != nil {
		return nil, err
	}

	st := newRunState(planned, shards, obs)

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	defer st.abort() // late attempt goroutines must not touch obs after return

	var pending []*shardTask
	remaining := 0
	for s := 0; s < shards; s++ {
		if len(st.seq[s]) == 0 {
			continue // more shards than baseline-sharing groups; nothing to run
		}
		pending = append(pending, &shardTask{shard: s})
		remaining++
	}
	inflight := make(map[int]*shardTask)
	// Buffered to the shard count so attempt goroutines can always post
	// their result and exit, even after Run has returned on error.
	done := make(chan attemptResult, shards)
	var noWorkerSince time.Time

	for remaining > 0 {
		// Dispatch every ready pending shard a free live worker exists for.
		now := time.Now()
		for i := 0; i < len(pending); {
			t := pending[i]
			if now.Before(t.readyAt) {
				i++
				continue
			}
			ws := c.claimWorker(t.lastWorker)
			if ws == nil {
				break // no free live worker; wait for a beat or a completion
			}
			pending = append(pending[:i], pending[i+1:]...)
			t.attempts++
			t.lastWorker = ws.url
			inflight[t.shard] = t
			go c.attempt(runCtx, ws.url, spec, t.shard, shards, len(st.seq[t.shard]), st, done)
		}

		// A fleet with work outstanding, nothing in flight and no live
		// worker is going nowhere: fail after WorkerWaitTimeout of that.
		if len(inflight) == 0 && c.liveCount() == 0 {
			if noWorkerSince.IsZero() {
				noWorkerSince = now
			} else if now.Sub(noWorkerSince) > c.opts.WorkerWaitTimeout {
				return nil, fmt.Errorf("fleet: no live workers for %s with %d shards outstanding", now.Sub(noWorkerSince).Round(time.Millisecond), remaining)
			}
		} else {
			noWorkerSince = time.Time{}
		}

		select {
		case res := <-done:
			t := inflight[res.shard]
			delete(inflight, res.shard)
			c.releaseWorker(res.workerURL)
			if res.err == nil {
				remaining--
				continue
			}
			if t.attempts >= c.opts.MaxAttempts {
				return nil, fmt.Errorf("fleet: shard %d failed %d times, last on %s: %w", res.shard, t.attempts, res.workerURL, res.err)
			}
			backoff := c.opts.RetryBackoff << (t.attempts - 1)
			if backoff > c.opts.MaxBackoff {
				backoff = c.opts.MaxBackoff
			}
			t.readyAt = time.Now().Add(backoff)
			pending = append(pending, t)
		case <-ctx.Done():
			return nil, fmt.Errorf("fleet: run cancelled: %w", ctx.Err())
		case <-time.After(50 * time.Millisecond):
			// Re-scan: backoffs expire, workers beat or die, late workers
			// register and immediately join the dispatch pool.
		}
	}

	return st.results, nil
}

// attempt runs one dispatch of one shard to one worker, with a liveness
// watchdog that abandons the attempt when the worker's heartbeats stop —
// a hung worker must not hold its shard hostage.
func (c *Coordinator) attempt(ctx context.Context, workerURL string, spec Spec, shard, shards, want int, st *runState, done chan<- attemptResult) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if !c.isLive(workerURL) {
					cancel()
					return
				}
			}
		}
	}()
	err := c.dispatch(actx, workerURL, spec, shard, shards, want, st)
	done <- attemptResult{shard: shard, workerURL: workerURL, err: err}
}

// dispatch POSTs one shard to a worker and ingests its NDJSON stream. The
// shard's already-completed cells (from a previous attempt) ride along as
// checkpoint records. Success requires exactly the planned cell count and
// a cleanly terminated stream; anything else — a non-200, a cut
// connection, an in-band error line, a short stream — fails the attempt.
func (c *Coordinator) dispatch(ctx context.Context, workerURL string, spec Spec, shard, shards, want int, st *runState) error {
	body, err := json.Marshal(runRequest{Spec: spec, ShardIndex: shard, ShardCount: shards, Journal: st.journalFor(shard)})
	if err != nil {
		return fmt.Errorf("fleet: encoding shard request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+"/run", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: shard request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: dispatching shard %d to %s: %w", shard, workerURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fleet: worker %s rejected shard %d: %s: %s", workerURL, shard, resp.Status, strings.TrimSpace(string(msg)))
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	k := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := st.ingestLine(workerURL, shard, k, line); err != nil {
			return err
		}
		k++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("fleet: worker %s stream for shard %d cut after %d of %d cells: %w", workerURL, shard, k, want, err)
	}
	if k != want {
		return fmt.Errorf("fleet: worker %s stream for shard %d ended after %d of %d cells", workerURL, shard, k, want)
	}
	return nil
}
