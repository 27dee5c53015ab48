// Command colab-fleet runs one experiment sweep across many hosts: a
// coordinator process deals deterministic shard assignments of the sweep
// to registered worker daemons over HTTP, streams their per-cell results
// back, and reassembles the union — byte-identical to the same sweep run
// unsharded in one process (-mode local proves it). Workers that die
// mid-shard are survived: the shard is retried on a surviving worker
// with the completed cells shipped along as a checkpoint journal, so
// nothing already computed is recomputed.
//
// Usage:
//
//	# one worker per host, pointing at the coordinator
//	colab-fleet -mode worker -addr :8081 -coordinator http://coord:8080
//
//	# the coordinator: waits for workers, runs the sweep, streams NDJSON
//	colab-fleet -mode coordinator -addr :8080 -min-workers 2 \
//	    -workload Sync-1,Comp-1 -policy linux,wash -seed 1,2 -o fleet.csv
//
//	# the same sweep in-process, for comparison or small runs
//	colab-fleet -mode local -workload Sync-1,Comp-1 -policy linux,wash \
//	    -seed 1,2 -o local.csv
//
//	# housekeeping: drop duplicate records from a checkpoint journal
//	colab-fleet -compact sweep.ndjson
//
// Cells stream to stdout as NDJSON (fleet.Cell, the colab-serve line) in the
// sweep's deterministic cross-product order; -o additionally writes the
// final result set as CSV. Workers exit gracefully on SIGTERM, draining
// in-flight shards.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"syscall"
	"time"

	colab "colab"
	"colab/internal/fleet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: parses args, runs the selected mode,
// returns the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("colab-fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode        = fs.String("mode", "local", "coordinator, worker, or local (run the sweep in-process)")
		addr        = fs.String("addr", ":8080", "listen address (coordinator and worker modes)")
		coordinator = fs.String("coordinator", "", "coordinator base URL to register with (worker mode)")
		advertise   = fs.String("advertise", "", "externally reachable URL of this worker (default: derived from -addr on 127.0.0.1)")
		cacheLimit  = fs.Int("cache-limit", 0, "bound the worker cell cache to this many cells, LRU-evicted, and its baselines separately to as many (0 = unbounded)")
		drain       = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget on SIGTERM")
		compact     = fs.String("compact", "", "compact the checkpoint journal at this path and exit")

		workloads  = fs.String("workload", "", "comma-separated workloads: scenario names or grammar specs")
		machines   = fs.String("machine", "", "comma-separated named machine shapes (default 2B2S)")
		policies   = fs.String("policy", "", "comma-separated policies (default: the paper policies)")
		seeds      = fs.String("seed", "", "comma-separated workload seeds (default 1)")
		workers    = fs.Int("workers", 0, "per-process run parallelism (0 = GOMAXPROCS)")
		shards     = fs.Int("shards", 0, "shard count (0 = one shard per live worker)")
		minWorkers = fs.Int("min-workers", 1, "wait for this many registered workers before dispatching")
		output     = fs.String("o", "", "write the final result set as CSV to this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compact != "" {
		kept, dropped, err := colab.CompactJournal(*compact)
		if err != nil {
			fmt.Fprintf(stderr, "colab-fleet: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "compacted %s: kept %d records, dropped %d\n", *compact, kept, dropped)
		return 0
	}
	var err error
	switch *mode {
	case "worker":
		err = runWorker(ctx, stderr, *addr, *coordinator, *advertise, *drain, *cacheLimit)
	case "coordinator", "local":
		var opts []colab.ExperimentOption
		if opts, err = sweepOptions(*workloads, *machines, *policies, *seeds, *workers); err == nil {
			if *mode == "coordinator" {
				err = runCoordinator(ctx, stdout, stderr, *addr, *shards, *minWorkers, *output, opts)
			} else {
				err = runSweep(ctx, stdout, *output, opts)
			}
		}
	default:
		err = fmt.Errorf("unknown -mode %q (coordinator, worker, or local)", *mode)
	}
	if err != nil {
		fmt.Fprintf(stderr, "colab-fleet: %v\n", err)
		return 1
	}
	return 0
}

// sweepOptions translates the sweep flags into session options through
// the decoder colab-serve's queries go through, so both accept the same
// spellings and defaults.
func sweepOptions(workloads, machines, policies, seeds string, workers int) ([]colab.ExperimentOption, error) {
	spec, err := fleet.SpecFromQuery(url.Values{"workload": {workloads}, "machine": {machines}, "policy": {policies}, "seed": {seeds}})
	if err != nil {
		return nil, err
	}
	cfgs, err := fleet.Machines(spec.Machines)
	if err != nil {
		return nil, err
	}
	return []colab.ExperimentOption{
		colab.WithWorkloads(spec.Workloads...), colab.WithMachines(cfgs...),
		colab.WithPolicies(spec.Policies...), colab.WithSeeds(spec.Seeds...), colab.WithWorkers(workers),
	}, nil
}

// runWorker serves a worker daemon, heartbeating at RegisterFleetWorker's
// default cadence, until ctx is cancelled (SIGTERM), then drains
// in-flight shards gracefully.
func runWorker(ctx context.Context, stderr io.Writer, addr, coordinator, advertise string, drain time.Duration, cacheLimit int) error {
	if coordinator == "" {
		return fmt.Errorf("worker mode needs -coordinator")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if advertise == "" {
		advertise = "http://" + hostPort(ln.Addr().String(), addr)
	}
	go colab.RegisterFleetWorker(ctx, nil, coordinator, advertise, 0)
	fmt.Fprintf(stderr, "colab-fleet: worker %s registering with %s\n", advertise, coordinator)
	w := colab.NewFleetWorker(colab.NewCellCache(colab.WithCellCacheLimit(cacheLimit)))
	return fleet.Serve(ctx, ln, w, drain, stderr, "colab-fleet")
}

// hostPort renders a dialable host:port for a listener: a wildcard-host
// bind (":8081") advertises as loopback, since a worker that cannot name
// its own host should at least be reachable from a local coordinator.
func hostPort(bound, requested string) string {
	host, port, err := net.SplitHostPort(bound)
	if err != nil {
		return requested
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, port)
}

// runCoordinator serves the coordinator, waits for the fleet to form,
// runs the sweep across it, and streams/writes the results.
func runCoordinator(ctx context.Context, stdout, stderr io.Writer, addr string, shards, minWorkers int, output string, opts []colab.ExperimentOption) error {
	f := colab.NewFleet(colab.FleetOptions{Shards: shards})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: f}
	defer srv.Close()
	go srv.Serve(ln)
	fmt.Fprintf(stderr, "colab-fleet: coordinator on %s waiting for %d worker(s)\n", ln.Addr(), minWorkers)
	if err := f.WaitWorkers(ctx, minWorkers); err != nil {
		return fmt.Errorf("waiting for %d worker(s): %w", minWorkers, err)
	}
	return runSweep(ctx, stdout, output, append(opts, colab.WithFleet(f)))
}

// runSweep executes the session (fleet-backed or local, depending on
// opts), streaming cells to stdout as NDJSON and writing CSV to output.
func runSweep(ctx context.Context, stdout io.Writer, output string, opts []colab.ExperimentOption) error {
	enc := json.NewEncoder(stdout)
	opts = append(opts, colab.WithObserver(func(c colab.ExperimentResult) {
		enc.Encode(fleet.Cell{
			Workload: c.Run.Workload,
			Machine:  c.Run.Machine,
			Policy:   c.Run.Policy,
			Seed:     c.Run.Seed,
			HANTT:    c.Score.HANTT,
			HSTP:     c.Score.HSTP,
			Key:      c.Key.String(),
			Cached:   c.Cached,
		})
		if f, ok := stdout.(interface{ Sync() error }); ok {
			f.Sync()
		}
	}))
	res, err := colab.NewExperiment(opts...).Run(ctx)
	if err != nil {
		return err
	}
	if output != "" {
		f, err := os.Create(output)
		if err != nil {
			return err
		}
		if err := res.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
