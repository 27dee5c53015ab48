// Command colab-serve exposes the experiment session API as an HTTP
// service: POST (or GET) a sweep spec — scenario-grammar workloads,
// policy-composition strings, named machine shapes, seeds — to /run and
// the per-cell scores stream back as NDJSON in the sweep's deterministic
// cross-product order, each line flushed as its cell completes.
//
// All requests share one content-addressed cell cache keyed by the
// canonical cell coordinates (see colab.CellKey): a repeated request —
// or any request overlapping an earlier one, however the workloads and
// policies were spelled — is answered from cache, and concurrent
// identical cells are computed once. /stats reports the cache counters.
//
// Usage:
//
//	colab-serve -addr :8080 -max-concurrent 8 -cache-limit 100000
//	curl 'localhost:8080/run?workload=Sync-1&policy=linux,colab&seed=1'
//	curl localhost:8080/stats
//
// -max-concurrent bounds simultaneous /run sweeps (excess requests get
// 429 with Retry-After rather than queueing unboundedly), -cache-limit
// bounds the cell cache with LRU eviction, and SIGTERM/SIGINT shut down
// gracefully: the listener closes, in-flight /run streams drain to
// completion (up to -drain-timeout), then the process exits 0.
//
// Endpoints:
//
//	GET/POST /run      stream one NDJSON object per cell (fleet.Cell);
//	                   cells carry the spec's @class= label, and with
//	                   ?classes=1 the stream ends with the per-class
//	                   grouping (one classLine per class x policy)
//	GET      /stats    cache and service counters, JSON
//	GET      /healthz  liveness probe
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	colab "colab"
	"colab/internal/experiment"
	"colab/internal/fleet"
	"colab/internal/mathx"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "bound simultaneous /run sweeps; excess requests get 429 (0 = unbounded)")
	cacheLimit := flag.Int("cache-limit", 0, "bound the cell cache to this many cells, LRU-evicted (0 = unbounded)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget for in-flight streams")
	flag.Parse()
	s := newServer(serverOptions{maxConcurrent: *maxConcurrent, cacheLimit: *cacheLimit})
	srv := &http.Server{Addr: *addr, Handler: s}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "colab-serve: listening on %s\n", *addr)
	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "colab-serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "colab-serve: shutting down, draining in-flight streams (up to %s)\n", *drain)
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintf(os.Stderr, "colab-serve: drain incomplete: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "colab-serve: drained, exiting")
}

// serverOptions configure the service: both zero values mean unbounded.
type serverOptions struct {
	maxConcurrent int
	cacheLimit    int
}

// server is the service state: one shared cell cache, the concurrency
// gate and the request counters. Its handler is safe for concurrent use.
type server struct {
	mux         *http.ServeMux
	cache       *colab.CellCache
	sem         chan struct{} // nil = unbounded
	requests    atomic.Uint64
	cellsServed atomic.Uint64
	rejected    atomic.Uint64
	inflight    atomic.Int64

	// testHold, when set, is called while a /run request holds its
	// concurrency slot — the tests' deterministic way to keep a sweep
	// in flight. Nil in production.
	testHold func()
}

func newServer(opts serverOptions) *server {
	s := &server{
		mux:   http.NewServeMux(),
		cache: colab.NewCellCache(colab.WithCellCacheLimit(opts.cacheLimit)),
	}
	if opts.maxConcurrent > 0 {
		s.sem = make(chan struct{}, opts.maxConcurrent)
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// classLine is one row of the ?classes=1 trailer: the ClassTable grouping
// of the streamed cells, geomeaned per (class, policy) in first-seen
// stream order.
type classLine struct {
	Class  string  `json:"class"`
	Policy string  `json:"policy"`
	Cells  int     `json:"cells"`
	HANTT  float64 `json:"geomean_h_antt"`
	HSTP   float64 `json:"geomean_h_stp"`
}

// classLines folds the streamed cells into the per-class grouping.
func classLines(cells []fleet.Cell) []classLine {
	type key struct{ class, policy string }
	var out []classLine
	groups := make(map[key][]fleet.Cell)
	var order []key
	for _, c := range cells {
		class := c.Class
		if class == "" {
			class = "unclassified"
		}
		k := key{class, c.Policy}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], c)
	}
	for _, k := range order {
		g := groups[k]
		antt := make([]float64, len(g))
		stp := make([]float64, len(g))
		for i, c := range g {
			antt[i], stp[i] = c.HANTT, c.HSTP
		}
		out = append(out, classLine{
			Class: k.class, Policy: k.policy, Cells: len(g),
			HANTT: mathx.GeoMean(antt), HSTP: mathx.GeoMean(stp),
		})
	}
	return out
}

// splitList flattens repeated and comma-separated query values into one
// trimmed list: ?policy=linux,wash&policy=colab is three policies.
func splitList(values []string) []string {
	var out []string
	for _, v := range values {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}

// batchFromQuery decodes the request's query parameters into the sweep
// spec a fleet worker decodes from JSON — with colab.Experiment's
// defaults: machine 2B2S, the paper policies, seed 1 — and builds its
// batch through the same Spec.Batch, which resolves the workload, machine
// and policy spellings. It also reports whether the class trailer was
// asked for.
func batchFromQuery(q url.Values) (b *experiment.Batch, classes bool, err error) {
	fail := func(format string, args ...any) (*experiment.Batch, bool, error) {
		return nil, false, fmt.Errorf(format, args...)
	}
	spec := fleet.Spec{
		Workloads: splitList(q["workload"]),
		Machines:  splitList(q["machine"]),
		Policies:  splitList(q["policy"]),
	}
	if len(spec.Workloads) == 0 {
		return fail("at least one workload parameter is required (a registered name or a scenario-grammar spec)")
	}
	if len(spec.Machines) == 0 {
		spec.Machines = []string{colab.Config2B2S.Name}
	}
	if len(spec.Policies) == 0 {
		spec.Policies = colab.PaperPolicies()
	}
	for _, v := range splitList(q["seed"]) {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fail("seed %q is not an unsigned integer", v)
		}
		spec.Seeds = append(spec.Seeds, n)
	}
	if len(spec.Seeds) == 0 {
		spec.Seeds = []uint64{1}
	}
	// The single-valued parameters refuse repeats: ?workers=1&workers=2
	// is an error, not 12 workers.
	one := make(map[string]string, 4)
	for _, name := range []string{"workers", "shard_index", "shard_count", "classes"} {
		if len(q[name]) > 1 {
			return fail("parameter %s is repeated; give it once", name)
		}
		one[name] = strings.TrimSpace(q.Get(name))
	}
	if v := one["workers"]; v != "" {
		if spec.Workers, err = strconv.Atoi(v); err != nil || spec.Workers < 1 {
			return fail("workers %q is not a positive integer", v)
		}
	}
	var shardIndex, shardCount int
	if one["shard_index"] != "" || one["shard_count"] != "" {
		var err1, err2 error
		shardIndex, err1 = strconv.Atoi(one["shard_index"])
		shardCount, err2 = strconv.Atoi(one["shard_count"])
		if err1 != nil || err2 != nil {
			return fail("shard_index and shard_count must be set together as integers")
		}
	}
	if b, err = spec.Batch(shardIndex, shardCount); err != nil {
		return nil, false, err
	}
	c := one["classes"]
	return b, c != "" && c != "0" && c != "false", nil
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		http.Error(w, "use GET or POST", http.StatusMethodNotAllowed)
		return
	}
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			// At capacity: shed rather than queue, so latency stays bounded
			// and the client can retry or go elsewhere.
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "colab-serve: at capacity (-max-concurrent sweeps in flight), retry shortly", http.StatusTooManyRequests)
			return
		}
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.testHold != nil {
		s.testHold()
	}
	if err := r.ParseForm(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b, wantClasses, err := batchFromQuery(r.Form)
	if err != nil {
		http.Error(w, "colab-serve: "+err.Error(), http.StatusBadRequest)
		return
	}
	b.Cache = s.cache
	classOf := make(map[string]string, len(b.Scenarios))
	for _, sc := range b.Scenarios {
		classOf[sc.Name] = string(sc.Class)
	}
	var collected []fleet.Cell
	err = fleet.Stream(r.Context(), w, b, "colab-serve: ", func(c *fleet.Cell) error {
		s.cellsServed.Add(1)
		c.Class = classOf[c.Workload]
		if wantClasses {
			collected = append(collected, *c)
		}
		return nil
	})
	if err != nil || !wantClasses {
		return
	}
	// The class trailer: the ClassTable grouping of the cells just
	// streamed, one NDJSON object per (class, policy) group.
	enc := json.NewEncoder(w)
	for _, cl := range classLines(collected) {
		enc.Encode(cl)
	}
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Requests    uint64           `json:"requests"`
		CellsServed uint64           `json:"cells_served"`
		Rejected    uint64           `json:"rejected"`
		Inflight    int64            `json:"inflight"`
		Cache       colab.CacheStats `json:"cache"`
	}{s.requests.Load(), s.cellsServed.Load(), s.rejected.Load(), s.inflight.Load(), s.cache.Stats()})
}
