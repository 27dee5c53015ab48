package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
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
	// HTTPClient dispatches shard requests (default http.DefaultClient;
	// per-attempt cancellation comes from contexts, so no client timeout
	// is needed and a streaming-friendly client must not set one).
	HTTPClient *http.Client
}

// The failure bounds of every Coordinator. A worker beating at
// RegisterFleetWorker's default 1s cadence misses four beats before it
// times out.
const (
	// heartbeatTimeout is how long a registration or heartbeat keeps a
	// worker live.
	heartbeatTimeout = 5 * time.Second
	// maxAttempts bounds how often one shard is dispatched before the
	// run fails.
	maxAttempts = 5
	// workerWaitTimeout bounds how long Run waits with shards
	// outstanding, nothing in flight and no live worker: a dead fleet
	// fails the run instead of hanging it.
	workerWaitTimeout = 60 * time.Second
)

// WorkerInfo is one registered worker as reported by Workers and the
// /workers endpoint.
type WorkerInfo struct {
	URL string `json:"url"`
	// Live reports the worker may be dealt shards: its last registration
	// or heartbeat is fresh, and no dispatch to it has failed since.
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
	// retired is set by a failed dispatch to the worker and cleared by its
	// next registration or heartbeat.
	retired bool
}

// Coordinator is the dispatching side of a fleet: it accepts worker
// registrations and liveness heartbeats over HTTP, and Run deals the
// shards of one sweep to the live workers — reassigning a failed shard to
// a live worker with the shard's checkpoint journal shipped along, and
// ingesting results idempotently so duplicate cells from retried shards
// are harmless.
//
// One rule decides liveness: a worker is live from a registration or
// heartbeat until the heartbeat timeout passes or a dispatch to it fails,
// whichever comes first. A dead worker is dealt no shard, and its
// in-flight dispatch is cancelled and its shard reassigned. The assembled
// result is byte-identical to the same sweep run unsharded in one process.
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

	// The failure bounds: the package constants, which tests shorten.
	heartbeatTimeout, workerWait time.Duration
	maxAttempts                  int

	mu      sync.Mutex
	workers map[string]*workerState
	running bool
}

// NewCoordinator returns a coordinator with opts applied.
func NewCoordinator(opts Options) *Coordinator {
	if opts.HTTPClient == nil {
		opts.HTTPClient = http.DefaultClient
	}
	c := &Coordinator{
		opts: opts, mux: http.NewServeMux(), workers: make(map[string]*workerState),
		heartbeatTimeout: heartbeatTimeout, workerWait: workerWaitTimeout, maxAttempts: maxAttempts,
	}
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
// and make it live again, so registration is idempotent and a
// re-registering worker revives.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	var reg registration
	if err := json.NewDecoder(r.Body).Decode(&reg); err != nil {
		http.Error(w, "fleet: registration body must be {\"url\": \"http://...\"}", http.StatusBadRequest)
		return
	}
	if u, err := url.Parse(reg.URL); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		http.Error(w, fmt.Sprintf("fleet: registration url %q is not an http:// or https:// URL with a host", reg.URL), http.StatusBadRequest)
		return
	}
	key := strings.TrimRight(reg.URL, "/")
	c.mu.Lock()
	ws, ok := c.workers[key]
	if !ok {
		ws = &workerState{url: key}
		c.workers[key] = ws
	}
	ws.lastBeat = time.Now()
	ws.retired = false
	c.mu.Unlock()
	fmt.Fprintln(w, "ok")
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.Workers())
}

// live is the one liveness rule of the Coordinator doc. Callers hold
// c.mu.
func (c *Coordinator) live(ws *workerState, now time.Time) bool {
	return !ws.retired && now.Sub(ws.lastBeat) <= c.heartbeatTimeout
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
			Live:        c.live(ws, now),
			Busy:        ws.busy,
			LastBeatAge: now.Sub(ws.lastBeat),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// liveCount returns the number of live workers.
func (c *Coordinator) liveCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	n := 0
	for _, ws := range c.workers {
		if c.live(ws, now) {
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

// claimWorker picks a free live worker, marks it busy and returns it;
// nil when none is available.
func (c *Coordinator) claimWorker() *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	urls := make([]string, 0, len(c.workers))
	for u := range c.workers {
		urls = append(urls, u)
	}
	sort.Strings(urls) // deterministic preference order
	for _, u := range urls {
		if ws := c.workers[u]; !ws.busy && c.live(ws, now) {
			ws.busy = true
			return ws
		}
	}
	return nil
}

// releaseWorker frees a worker after a dispatch; failed retires it until
// its next beat.
func (c *Coordinator) releaseWorker(workerURL string, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ws, ok := c.workers[workerURL]; ok {
		ws.busy = false
		ws.retired = ws.retired || failed
	}
}

// isLive reports whether the worker at workerURL is live.
func (c *Coordinator) isLive(workerURL string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws, ok := c.workers[workerURL]
	return ok && c.live(ws, time.Now())
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

// shardTask is one shard of a Run and, while it is in flight, the worker
// it was dealt to and the cancel func of that attempt.
type shardTask struct {
	shard    int
	attempts int
	worker   string
	cancel   context.CancelFunc
}

type attemptResult struct {
	shard int
	err   error
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

	// Validate the spec before waiting for workers, so a bad axis fails
	// at once and by name even on an empty fleet.
	b, err := spec.Batch(0, 0)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	shards := c.opts.Shards
	if shards <= 0 {
		// Deal one shard per live worker. An empty fleet waits here (up to
		// the worker wait timeout) rather than degenerating to a 1-shard
		// plan that the first late worker would have to run whole.
		waitCtx, cancel := context.WithTimeout(ctx, c.workerWait)
		err := c.WaitWorkers(waitCtx, 1)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("fleet: no live workers to run on: %w", err)
		}
		shards = c.liveCount()
	}
	b.ShardCount = shards
	planned, err := b.Plan()
	if err != nil {
		return nil, err
	}

	st := newRunState(planned, shards, obs)

	// Deferred in this order so the run is cancelled before it is
	// aborted: an attempt that fails on the abort sees the cancellation
	// and does not retire its worker.
	defer st.abort() // late attempt goroutines must not touch obs after return
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

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
	rescan := time.NewTicker(50 * time.Millisecond)
	defer rescan.Stop()
	var noWorkerSince time.Time

	for remaining > 0 {
		// Deal pending shards, oldest first, while a free live worker exists.
		for len(pending) > 0 {
			ws := c.claimWorker()
			if ws == nil {
				break // no free live worker; wait for a beat or a completion
			}
			t := pending[0]
			pending = pending[1:]
			t.attempts++
			t.worker = ws.url
			var actx context.Context
			actx, t.cancel = context.WithCancel(runCtx)
			inflight[t.shard] = t
			go c.attempt(runCtx, actx, ws.url, spec, t.shard, shards, len(st.seq[t.shard]), st, done)
		}
		// A worker that died mid-shard must not hold the shard hostage.
		for _, t := range inflight {
			if !c.isLive(t.worker) {
				t.cancel()
			}
		}

		// A fleet with work outstanding, nothing in flight and no live
		// worker is going nowhere: fail after the worker wait timeout.
		now := time.Now()
		if len(inflight) == 0 && c.liveCount() == 0 {
			if noWorkerSince.IsZero() {
				noWorkerSince = now
			} else if now.Sub(noWorkerSince) > c.workerWait {
				return nil, fmt.Errorf("fleet: no live workers for %s with %d shards outstanding", now.Sub(noWorkerSince).Round(time.Millisecond), remaining)
			}
		} else {
			noWorkerSince = time.Time{}
		}

		select {
		case res := <-done:
			t := inflight[res.shard]
			delete(inflight, res.shard)
			t.cancel()
			if res.err == nil {
				remaining--
				continue
			}
			if t.attempts >= c.maxAttempts {
				return nil, fmt.Errorf("fleet: shard %d failed %d times, last on %s: %w", res.shard, t.attempts, t.worker, res.err)
			}
			pending = append(pending, t)
		case <-ctx.Done():
			return nil, fmt.Errorf("fleet: run cancelled: %w", ctx.Err())
		case <-rescan.C:
			// Re-scan: workers beat or die, late workers register and
			// immediately join the dispatch pool.
		}
	}

	return st.results, nil
}

// attempt runs one dispatch of one shard to one worker under actx, which
// Run cancels when the worker stops being live. It frees the worker
// before it reports, retiring it on failure unless runCtx, the whole
// run, was cancelled.
func (c *Coordinator) attempt(runCtx, actx context.Context, workerURL string, spec Spec, shard, shards, want int, st *runState, done chan<- attemptResult) {
	err := c.dispatch(actx, workerURL, spec, shard, shards, want, st)
	c.releaseWorker(workerURL, err != nil && runCtx.Err() == nil)
	done <- attemptResult{shard: shard, err: err}
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
