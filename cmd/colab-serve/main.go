// Command colab-serve exposes the experiment session API as an HTTP
// service: GET (or form-POST) a sweep spec — scenario-grammar workloads,
// policy-composition strings, named machine shapes, seeds — to /run and
// the per-cell scores stream back as NDJSON (fleet.Cell) in the sweep's
// deterministic cross-product order, each line flushed as its cell
// completes. Cells carry their spec's @class= label, and ?classes=1 ends
// the stream with the per-class grouping (fleet.ClassLine). The server is
// a fleet worker (colab.NewFleetWorker), so it also runs shards a
// colab-fleet coordinator POSTs as JSON; /stats serves its counters and
// /healthz answers liveness probes.
//
// All requests share one content-addressed cell cache keyed by the
// canonical cell coordinates (see colab.CellKey): a repeated request —
// or any request overlapping an earlier one, however the workloads and
// policies were spelled — is answered from cache, and concurrent
// identical cells are computed once.
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
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	colab "colab"
	"colab/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxConcurrent := flag.Int("max-concurrent", 0, "bound simultaneous /run sweeps; excess requests get 429 (0 = unbounded)")
	cacheLimit := flag.Int("cache-limit", 0, "bound the cell cache to this many cells, LRU-evicted (0 = unbounded)")
	drain := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget for in-flight streams")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err == nil {
		fmt.Fprintf(os.Stderr, "colab-serve: listening on %s\n", *addr)
		err = fleet.Serve(ctx, ln, newWorker(*maxConcurrent, *cacheLimit), *drain, os.Stderr, "colab-serve")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "colab-serve: %v\n", err)
		os.Exit(1)
	}
}

// newWorker builds the service: one fleet worker over a cell cache of
// cacheLimit cells, admitting maxConcurrent sweeps (both 0 = unbounded).
func newWorker(maxConcurrent, cacheLimit int) *colab.FleetWorker {
	w := colab.NewFleetWorker(colab.NewCellCache(colab.WithCellCacheLimit(cacheLimit)))
	w.MaxConcurrent = maxConcurrent
	return w
}
