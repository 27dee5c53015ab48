package colab

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/fleet"
	"colab/internal/workload"
)

// Fleet is a multi-host sweep coordinator: an http.Handler that workers
// register with (POST /register, then periodic POST /heartbeat) and that
// deals deterministic shard assignments of an Experiment's sweep to the
// live workers, streaming their per-cell results back and reassembling
// the union byte-identical to an unsharded local Run. Failures are
// survived: a shard whose worker dies mid-stream is retried with
// exponential backoff on a surviving worker, shipping the already-
// completed cells as a checkpoint journal so they replay instead of
// recomputing, and duplicate cells from retried shards are ingested
// idempotently.
//
// Serve it, point colab-fleet workers (or NewFleetWorker daemons) at it,
// and attach it to a session with WithFleet:
//
//	f := colab.NewFleet(colab.FleetOptions{})
//	go http.ListenAndServe(":8080", f)
//	...
//	res, err := colab.NewExperiment(
//		colab.WithWorkloads("Sync-2", "Rand-7"),
//		colab.WithSeeds(1, 2, 3),
//		colab.WithFleet(f),
//	).Run(ctx)
type Fleet = fleet.Coordinator

// FleetOptions tune a Fleet coordinator's sharding and failure handling;
// the zero value selects sensible defaults (shard per live worker, 5
// attempts per shard, 200ms base backoff, 5s heartbeat timeout).
type FleetOptions = fleet.Options

// NewFleet builds a coordinator from options.
func NewFleet(opts FleetOptions) *Fleet { return fleet.NewCoordinator(opts) }

// FleetWorker is the one /run server: an http.Handler daemon that runs
// shards dealt by a coordinator, and GET sweep queries (colab-serve),
// through a long-lived cell cache. Serve it and announce it with
// RegisterFleetWorker (the colab-fleet binary's -mode worker does both).
type FleetWorker = fleet.Worker

// FleetWorkerStats is a point-in-time snapshot of a FleetWorker's
// counters (also served as JSON on the worker's /stats endpoint).
type FleetWorkerStats = fleet.WorkerStats

// FleetWorkerInfo describes one registered worker of a Fleet (served as
// JSON on the coordinator's /workers endpoint).
type FleetWorkerInfo = fleet.WorkerInfo

// NewFleetWorker builds a worker daemon serving /run through cache
// (nil for a fresh unbounded cache; bound it with CellCache.SetLimit).
func NewFleetWorker(cache *CellCache) *FleetWorker { return fleet.NewWorker(cache) }

// RegisterFleetWorker announces the worker daemon served at selfURL to
// the coordinator at coordinatorURL and keeps it registered with one
// heartbeat per interval (<= 0 selects 1s) until ctx is cancelled.
// Connection failures are retried at the same cadence, so a worker that
// outlives a coordinator restart re-registers on its next beat. Blocks;
// run it in a goroutine next to the worker's HTTP server.
func RegisterFleetWorker(ctx context.Context, client *http.Client, coordinatorURL, selfURL string, interval time.Duration) {
	fleet.RegisterAndHeartbeat(ctx, client, coordinatorURL, selfURL, interval)
}

// WithFleet runs the sweep on a fleet instead of in-process: Run hands
// the session spec to the coordinator, which deals shards to its
// registered workers and reassembles their streams. Results — content,
// order, and float bits — are identical to a local Run, including with
// WithObserver (cells stream in the same deterministic order as the
// shards complete).
//
// Fleet sweeps travel by name, so every axis must be resolvable on the
// workers: machines must be named shapes (NamedConfigs; arbitrary
// NewConfig shapes have no wire form), and workloads/policies must be
// registered on the worker binaries too. WithTracer, WithSpeedupModel,
// WithCheckpoint, WithCellCache and WithShard are local-execution
// concerns and are rejected in combination with WithFleet — the fleet
// itself shards the sweep, journals completed cells at the coordinator,
// and caches on the workers.
func WithFleet(f *Fleet) ExperimentOption {
	return func(e *Experiment) { e.fleet = f }
}

// fleetSpec renders the session as the fleet wire spec, validating that
// every axis survives travelling by name.
func (e *Experiment) fleetSpec() (fleet.Spec, error) {
	switch {
	case e.tracer != nil:
		return fleet.Spec{}, fmt.Errorf("colab: WithTracer cannot combine with WithFleet (trace events do not travel the fleet wire)")
	case e.model != nil:
		return fleet.Spec{}, fmt.Errorf("colab: WithSpeedupModel cannot combine with WithFleet (workers train their own default model)")
	case e.checkpoint != "":
		return fleet.Spec{}, fmt.Errorf("colab: WithCheckpoint cannot combine with WithFleet (the coordinator journals completed cells itself)")
	case e.cache != nil:
		return fleet.Spec{}, fmt.Errorf("colab: WithCellCache cannot combine with WithFleet (cells are cached on the workers)")
	case e.shardCount != 0 || e.shardIdx != 0:
		return fleet.Spec{}, fmt.Errorf("colab: WithShard cannot combine with WithFleet (the fleet shards the sweep itself)")
	}
	if len(e.workloads) == 0 {
		return fleet.Spec{}, fmt.Errorf("colab: experiment has no workloads (use WithWorkloads)")
	}
	for _, w := range e.workloads {
		spec, err := workload.ResolveSpec(w)
		if err != nil {
			continue // Run reports unresolvable workloads with full context.
		}
		if terms := spec.TraceFiles(); len(terms) != 0 {
			return fleet.Spec{}, fmt.Errorf("colab: workload %q replays the local trace file of term %q and cannot travel the fleet wire by name (inline the times with @arrive=trace(...) instead)", w, terms[0])
		}
	}
	machines := e.machines
	if len(machines) == 0 {
		machines = []Config{Config2B2S}
	}
	names := make([]string, len(machines))
	for i, cfg := range machines {
		reg, ok := cpu.ConfigByName(cfg.Name)
		if !ok {
			return fleet.Spec{}, fmt.Errorf("colab: machine %q is not a named shape — fleet sweeps resolve machines by name on the workers (see NamedConfigs)", cfg.Name)
		}
		if reg.Fingerprint() != cfg.Fingerprint() {
			return fleet.Spec{}, fmt.Errorf("colab: machine %q differs structurally from the named shape of that name; fleet workers would simulate the wrong machine", cfg.Name)
		}
		names[i] = cfg.Name
	}
	policies := e.policies
	if len(policies) == 0 {
		policies = PaperPolicies()
	}
	seeds := e.seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	return fleet.Spec{
		Workloads: e.workloads,
		Machines:  names,
		Policies:  policies,
		Seeds:     seeds,
		Params:    e.params,
		Workers:   e.workers,
	}, nil
}

// runFleet executes the sweep on e.fleet, which returns the cells in the
// session's cross-product order.
func (e *Experiment) runFleet(ctx context.Context) (*ExperimentResults, error) {
	spec, err := e.fleetSpec()
	if err != nil {
		return nil, err
	}
	var obs func(int, fleet.Cell)
	if e.observer != nil {
		obs = func(_ int, c fleet.Cell) {
			r, err := resultFromFleetCell(c)
			if err == nil {
				e.observer(r)
			}
		}
	}
	cells, err := e.fleet.Run(ctx, spec, obs)
	if err != nil {
		return nil, err
	}
	res := &ExperimentResults{Cells: make([]ExperimentResult, len(cells))}
	for i, c := range cells {
		if res.Cells[i], err = resultFromFleetCell(c); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resultFromFleetCell converts one wire cell back into the session form.
func resultFromFleetCell(c fleet.Cell) (ExperimentResult, error) {
	key, err := experiment.ParseCellKey(c.Key)
	if err != nil {
		return ExperimentResult{}, fmt.Errorf("colab: fleet cell carries an unparseable key: %w", err)
	}
	return ExperimentResult{
		Run:    ExperimentRun{Workload: c.Workload, Machine: c.Machine, Policy: c.Policy, Seed: c.Seed},
		Score:  MixScore{HANTT: c.HANTT, HSTP: c.HSTP},
		Key:    key,
		Cached: c.Cached,
	}, nil
}
