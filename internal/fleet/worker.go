package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"colab/internal/experiment"
)

// Worker is the executing side of a fleet: a thin HTTP daemon over the
// experiment session engine. Each /run request carries a sweep spec and a
// shard assignment; the worker runs exactly that shard — through its
// long-lived cell cache and, when the coordinator shipped one, a seeded
// checkpoint journal — and streams one NDJSON cell per completed cell, in
// the shard's deterministic cross-product order.
//
// Endpoints:
//
//	POST /run      execute one shard, streaming NDJSON cells
//	GET  /healthz  liveness probe
//	GET  /stats    WorkerStats (shards, cells, journal seeds, cache), JSON
//
// A Worker is safe for concurrent use; concurrent /run requests share the
// cell cache and dedup identical in-flight cells.
type Worker struct {
	mux   *http.ServeMux
	cache *experiment.Cache

	shardsRun     atomic.Uint64
	cellsStreamed atomic.Uint64
	journalSeeded atomic.Uint64

	// FaultInjector, when set, is consulted before streaming each cell of a
	// shard (with the shard index and the cell's position in the shard). A
	// non-nil return makes the worker abort the request's connection
	// abruptly, exactly as a killed process would — the failure-path tests'
	// way of dying mid-shard deterministically. Nil in production.
	FaultInjector func(shard, cell int) error
}

// NewWorker returns a worker daemon serving shards through cache (nil for
// a fresh unbounded cache).
func NewWorker(cache *experiment.Cache) *Worker {
	if cache == nil {
		cache = experiment.NewCache()
	}
	w := &Worker{mux: http.NewServeMux(), cache: cache}
	w.mux.HandleFunc("/run", w.handleRun)
	w.mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	w.mux.HandleFunc("/stats", w.handleStats)
	return w
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		ShardsRun:     w.shardsRun.Load(),
		CellsStreamed: w.cellsStreamed.Load(),
		JournalSeeded: w.journalSeeded.Load(),
		Cache:         w.cache.Stats(),
	}
}

func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) { w.mux.ServeHTTP(rw, r) }

func (w *Worker) handleStats(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(w.Stats())
}

// handleRun executes one shard through Stream: spec errors and failures
// before the first cell are clean 400s, later failures a terminal in-band
// {"error": ...} line. An injected fault (the test double of a process
// kill) aborts the connection without any terminal line, which the
// coordinator must treat exactly like a worker death.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "use POST", http.StatusMethodNotAllowed)
		return
	}
	var req runRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(rw, "fleet: decoding run request: "+err.Error(), http.StatusBadRequest)
		return
	}
	w.shardsRun.Add(1)
	b, err := req.Spec.Batch(req.ShardIndex, req.ShardCount)
	if err != nil {
		http.Error(rw, "fleet: "+err.Error(), http.StatusBadRequest)
		return
	}
	b.Cache = w.cache
	// A reassigned shard arrives with the coordinator's copy of its
	// checkpoint journal: replay it from memory so those cells are not
	// recomputed. The records belong to this request only — they never
	// enter the shared cache, where another coordinator's sweep would
	// read them.
	if len(req.Journal) > 0 {
		b.Journal = experiment.NewJournal(req.Journal)
		w.journalSeeded.Add(uint64(len(req.Journal)))
	}
	var streamed int
	var injected error
	Stream(r.Context(), rw, b, "fleet: ", func(*Cell) error {
		if w.FaultInjector != nil {
			if injected = w.FaultInjector(req.ShardIndex, streamed); injected != nil {
				return injected
			}
		}
		streamed++
		w.cellsStreamed.Add(1)
		return nil
	})
	if injected != nil {
		// Die the way a SIGKILLed process dies: connection cut, no
		// terminal line, no clean chunked EOF.
		panic(http.ErrAbortHandler)
	}
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
