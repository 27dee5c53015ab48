package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"colab/internal/experiment"
)

// Worker is the one /run server: a thin HTTP daemon over the experiment
// session engine. It runs each request's batch through one long-lived
// cell cache and streams one NDJSON Cell per completed cell, in the
// batch's deterministic cross-product order, each labelled with its
// scenario's @class=. A /run request is either
//
//   - a coordinator's shard: a POST with Content-Type application/json
//     carrying the sweep spec, the shard assignment and, on reassignment,
//     the coordinator's copy of the shard's checkpoint journal; or
//   - a query: any other GET or POST, whose URL or form parameters
//     (workload, machine, policy, seed, workers, shard_index, shard_count,
//     classes) decode into the same Spec. With ?classes=1 the stream ends
//     with the per-class grouping, one ClassLine per (class, policy).
//
// It also serves /stats (WorkerStats, JSON) and /healthz. A Worker is safe
// for concurrent use; concurrent /run requests share the cell cache and
// dedup identical in-flight cells.
type Worker struct {
	mux   *http.ServeMux
	cache *experiment.Cache

	requests, cellsServed, rejected, journalSeeded atomic.Uint64
	inflight                                       atomic.Int64

	// MaxConcurrent bounds simultaneous /run requests: one over the bound
	// is shed with 429 and Retry-After rather than queued, so latency
	// stays bounded. 0 = unbounded. Set it before serving.
	MaxConcurrent int

	// FaultInjector, when set, is consulted before streaming each cell of a
	// request (with the request's shard index and the cell's position in
	// it), while the request holds its admission slot. A non-nil return
	// makes the worker abort the request's connection abruptly, exactly as
	// a killed process would — the tests' way of dying mid-shard, or of
	// holding a request in flight, deterministically. Nil in production.
	FaultInjector func(shard, cell int) error
}

// NewWorker returns a worker daemon serving through cache (nil for a
// fresh unbounded cache).
func NewWorker(cache *experiment.Cache) *Worker {
	if cache == nil {
		cache = experiment.NewCache()
	}
	w := &Worker{mux: http.NewServeMux(), cache: cache}
	w.mux.HandleFunc("/run", w.handleRun)
	w.mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	w.mux.HandleFunc("/stats", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(w.Stats())
	})
	return w
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Requests:      w.requests.Load(),
		CellsServed:   w.cellsServed.Load(),
		Rejected:      w.rejected.Load(),
		Inflight:      w.inflight.Load(),
		JournalSeeded: w.journalSeeded.Load(),
		Cache:         w.cache.Stats(),
	}
}

func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

// handleRun admits, decodes and streams one /run request. An injected
// fault (the test double of a process kill) aborts the connection
// without any terminal line, which the coordinator must treat exactly
// like a worker death.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	w.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(rw, "use GET or POST", http.StatusMethodNotAllowed)
		return
	}
	if n := w.inflight.Add(1); w.MaxConcurrent > 0 && n > int64(w.MaxConcurrent) {
		// At capacity: shed rather than queue, so the client can retry or
		// go elsewhere.
		w.inflight.Add(-1)
		w.rejected.Add(1)
		rw.Header().Set("Retry-After", "1")
		http.Error(rw, "fleet: at capacity (max concurrent /run requests in flight), retry shortly", http.StatusTooManyRequests)
		return
	}
	defer w.inflight.Add(-1)
	b, classes, err := w.decode(r)
	if err != nil {
		http.Error(rw, "fleet: "+err.Error(), http.StatusBadRequest)
		return
	}
	b.Cache = w.cache
	if w.stream(r.Context(), rw, b, classes) != nil {
		// Die the way a SIGKILLed process dies: connection cut, no
		// terminal line, no clean chunked EOF.
		panic(http.ErrAbortHandler)
	}
}

// decode reads a /run request's batch and whether the class trailer was
// asked for.
func (w *Worker) decode(r *http.Request) (*experiment.Batch, bool, error) {
	if ct, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type")); r.Method != http.MethodPost || ct != "application/json" {
		if err := r.ParseForm(); err != nil {
			return nil, false, err
		}
		return batchFromQuery(r.Form)
	}
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, false, fmt.Errorf("decoding run request: %w", err)
	}
	b, err := req.Spec.Batch(req.ShardIndex, req.ShardCount)
	if err != nil {
		return nil, false, err
	}
	// A reassigned shard arrives with the coordinator's copy of its
	// checkpoint journal: replay it from memory so those cells are not
	// recomputed. The records belong to this request only — they never
	// enter the shared cache, where another coordinator's sweep would
	// read them.
	if len(req.Journal) > 0 {
		b.Journal = experiment.NewJournal(req.Journal)
		w.journalSeeded.Add(uint64(len(req.Journal)))
	}
	return b, false, nil
}

// stream runs b and writes its cells to rw as NDJSON, flushed as each
// lands, then with classes the ClassLine trailer. The 200 header goes out
// with the first cell, so a run that fails before any cell is a clean
// 400, and one that fails later ends the stream with an in-band
// {"error": ...} line. It returns the injected fault that stopped the
// run, if any.
func (w *Worker) stream(ctx context.Context, rw http.ResponseWriter, b *experiment.Batch, classes bool) (injected error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	enc, rc := json.NewEncoder(rw), http.NewResponseController(rw)
	classOf := make(map[string]string, len(b.Scenarios))
	for _, sc := range b.Scenarios {
		classOf[sc.Name] = string(sc.Class)
	}
	var (
		streamed  int
		collected []Cell
	)
	b.Observer = func(bc experiment.BatchCell) {
		if ctx.Err() != nil {
			return // stopped, or the client hung up
		}
		if w.FaultInjector != nil {
			if injected = w.FaultInjector(b.ShardIndex, streamed); injected != nil {
				cancel()
				return
			}
		}
		c := Cell{
			Workload: bc.Key.Workload,
			Class:    classOf[bc.Key.Workload],
			Machine:  bc.Key.Config,
			Policy:   bc.Key.Policy,
			Seed:     bc.Key.Seed,
			HANTT:    bc.Score.HANTT,
			HSTP:     bc.Score.HSTP,
			Key:      bc.CellKey.String(),
			Cached:   bc.Cached,
		}
		if streamed == 0 {
			rw.Header().Set("Content-Type", "application/x-ndjson")
			rw.WriteHeader(http.StatusOK)
		}
		streamed++
		w.cellsServed.Add(1)
		if classes {
			collected = append(collected, c)
		}
		if enc.Encode(c) != nil {
			cancel() // the client hung up; stop computing for nobody
			return
		}
		rc.Flush()
	}
	_, err := b.Run(ctx)
	switch {
	case ctx.Err() != nil:
	case err != nil && streamed == 0:
		http.Error(rw, "fleet: "+err.Error(), http.StatusBadRequest)
	case err != nil:
		enc.Encode(map[string]string{"error": err.Error()})
	case classes:
		for _, cl := range classLines(collected) {
			enc.Encode(cl)
		}
		rc.Flush()
	}
	return injected
}

// Serve serves h on ln until ctx is cancelled (SIGTERM in the daemons),
// then shuts down gracefully: the listener closes and in-flight requests
// drain for up to drain. name prefixes the progress lines written to log,
// the last of which is "drained, exiting".
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration, log io.Writer, name string) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(log, "%s: shutting down, draining in-flight requests (up to %s)\n", name, drain)
	sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	fmt.Fprintf(log, "%s: drained, exiting\n", name)
	return nil
}

// RegisterAndHeartbeat announces the worker at selfURL to the coordinator
// and keeps it registered: an immediate registration, then one heartbeat
// per interval, until ctx is cancelled. Connection failures are retried
// at the same cadence — a worker that outlives a coordinator restart
// simply re-registers on its next beat, and registering is idempotent.
func RegisterAndHeartbeat(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, interval time.Duration) {
	if client == nil {
		client = http.DefaultClient
	}
	if interval <= 0 {
		interval = time.Second
	}
	body, _ := json.Marshal(registration{URL: selfURL})
	post := func(path string) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinatorURL+path, bytes.NewReader(body))
		if err != nil {
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			return // coordinator down or unreachable; next beat retries
		}
		resp.Body.Close()
	}
	post("/register")
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			post("/heartbeat")
		}
	}
}
