package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/kernel"
	"colab/internal/metrics"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// cell is one sweep coordinate: a scenario on a machine under a policy at
// a seed.
type cell struct {
	spec   workload.Spec
	cfg    cpu.Config
	policy string
	seed   uint64
}

func (c cell) key() experiment.CellKey {
	return experiment.NewCellKey(c.spec, c.policy, c.cfg, c.seed, kernel.Params{})
}

// cellOut is one scored cell plus the deterministic simulated statistics
// of its two mix runs (big-first and little-first core order).
type cellOut struct {
	score  metrics.MixScore
	events uint64
	sim    simCounts
}

// simCounts are simulated quantities a speed-only change must leave
// identical.
type simCounts struct {
	migrations, preemptions, switches, crossHops int
	endTime                                      sim.Time
}

func (s *simCounts) add(r *kernel.Result) {
	s.migrations += r.TotalMigrations
	s.preemptions += r.TotalPreemptions
	s.switches += r.TotalSwitches
	for _, t := range r.Threads {
		s.crossHops += t.CrossDomainHops
	}
	s.endTime += r.EndTime
}

// cellRunner scores cells by calling each layer directly: the scenario
// grammar, workload build, policy registry, kernel and metrics. It mirrors
// what experiment.Batch computes per cell (each app's big-only-alone
// baseline, then the mix under both core orders, scored and averaged), so
// its scores must equal the program's bit for bit; that equality is one of
// the benchmark's checks. With a tracer it records a span around every
// layer call and wraps the scheduler and predictor in timing code.
type cellRunner struct {
	speedup func(*task.Thread) float64
	tr      *tracer
	journal *experiment.Journal

	mu        sync.Mutex
	baselines map[string]sim.Time
}

func newCellRunner(tr *tracer) (*cellRunner, error) {
	model, err := perfmodel.Default()
	if err != nil {
		return nil, err
	}
	return &cellRunner{speedup: model.ThreadPredictor(), tr: tr, baselines: make(map[string]sim.Time)}, nil
}

// simulate builds the scheduler for kind (wrapped when tracing), wires a
// machine and runs w to completion.
func (r *cellRunner) simulate(ctx context.Context, cfg cpu.Config, kind string, w *task.Workload, parent int64, tag string) (*kernel.Result, error) {
	pctx := policy.Context{Speedup: r.speedup}
	var st *schedStats
	if r.tr != nil {
		st = &schedStats{}
		pctx.Speedup = wrapPredictor(r.speedup, st)
	}
	s, err := policy.New(kind, pctx)
	if err != nil {
		return nil, err
	}
	if st != nil {
		s = wrapScheduler(s, st)
	}
	o := r.tr.start("kernel.new_machine", parent)
	m, err := kernel.NewMachine(cfg, s, w, kernel.Params{})
	o.end()
	if err != nil {
		return nil, err
	}
	o = r.tr.start("kernel.run", parent)
	o.tag(tag)
	res, err := m.RunContext(ctx)
	if st != nil {
		recordSched(o, st)
	}
	if err == nil {
		o.attr("events", float64(res.Events))
		var sc simCounts
		sc.add(res)
		o.attr("migrations", float64(sc.migrations))
		o.attr("preemptions", float64(sc.preemptions))
		o.attr("switches", float64(sc.switches))
		o.attr("cross_domain_hops", float64(sc.crossHops))
		o.attr("sim_end_ms", float64(res.EndTime)/float64(sim.Millisecond))
	}
	o.end()
	return res, err
}

// build times one Spec.BuildFor call.
func (r *cellRunner) build(spec workload.Spec, seed uint64, capacity float64, parent int64) (*task.Workload, error) {
	o := r.tr.start("workload.build", parent)
	w, err := spec.BuildFor(seed, capacity)
	o.end()
	return w, err
}

// baseline returns (memoised) the turnaround of app appIdx of spec alone
// on an all-big machine with the cores of cfg, as experiment.Runner
// defines it: the closed build of the scenario, the app isolated with its
// arrival cleared, under linux.
func (r *cellRunner) baseline(ctx context.Context, spec workload.Spec, appIdx int, cfg cpu.Config, seed uint64, parent int64) (sim.Time, error) {
	n := cfg.NumCores()
	key := experiment.BaselineKey(spec, appIdx, n, seed, kernel.Params{})
	r.mu.Lock()
	v, ok := r.baselines[key]
	r.mu.Unlock()
	if ok {
		return v, nil
	}
	o := r.tr.start("experiment.baseline", parent)
	defer o.end()
	w, err := r.build(spec.Closed(), seed, 0, o.id())
	if err != nil {
		return 0, err
	}
	if appIdx >= len(w.Apps) {
		return 0, fmt.Errorf("app index %d out of range for %s", appIdx, spec.Name)
	}
	app := w.Apps[appIdx]
	app.Arrival = 0
	alone := &task.Workload{Name: spec.Name + "/" + app.Name, Apps: []*task.App{app}}
	res, err := r.simulate(ctx, cpu.NewSymmetric(cpu.Big, n), policy.Linux, alone, o.id(), "baseline")
	if err != nil {
		return 0, fmt.Errorf("baseline %s app %d: %w", spec.Name, appIdx, err)
	}
	v = res.Apps[0].Turnaround
	r.mu.Lock()
	r.baselines[key] = v
	r.mu.Unlock()
	return v, nil
}

// score computes one cell.
func (r *cellRunner) score(ctx context.Context, c cell, parent int64) (cellOut, error) {
	o := r.tr.start("experiment.cell", parent)
	defer o.end()
	bases := make([]sim.Time, c.spec.NumApps())
	for i := range bases {
		b, err := r.baseline(ctx, c.spec, i, c.cfg, c.seed, o.id())
		if err != nil {
			return cellOut{}, err
		}
		bases[i] = b
	}
	var out cellOut
	orders := []bool{true, false}
	for _, bigFirst := range orders {
		variant := c.cfg.Ordered(bigFirst)
		w, err := r.build(c.spec, c.seed, variant.AggregateCapacity(), o.id())
		if err != nil {
			return cellOut{}, err
		}
		res, err := r.simulate(ctx, variant, c.policy, w, o.id(), "mix")
		if err != nil {
			return cellOut{}, fmt.Errorf("%s on %s under %s: %w", c.spec.Name, variant.Name, c.policy, err)
		}
		so := r.tr.start("metrics.score", o.id())
		s, err := metrics.Score(res, func(i int, _ kernel.AppResult) sim.Time { return bases[i] })
		so.end()
		if err != nil {
			return cellOut{}, err
		}
		out.score.HANTT += s.HANTT / float64(len(orders))
		out.score.HSTP += s.HSTP / float64(len(orders))
		out.events += res.Events
		out.sim.add(res)
	}
	if r.journal != nil {
		jo := r.tr.start("experiment.journal_record", o.id())
		err := r.journal.Record(c.key(), out.score)
		jo.end()
		if err != nil {
			return cellOut{}, err
		}
	}
	return out, nil
}

// parallel calls f(i) for i in [0, n) on workers goroutines and returns
// the first error.
func parallel(ctx context.Context, n, workers int, f func(ctx context.Context, i int) error) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := f(ctx, i); err != nil {
					errOnce.Do(func() { first = err; cancel() })
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// scoreAll computes cells on two goroutines and returns the outputs in
// input order.
func (r *cellRunner) scoreAll(ctx context.Context, cells []cell) ([]cellOut, error) {
	out := make([]cellOut, len(cells))
	err := parallel(ctx, len(cells), 2, func(ctx context.Context, i int) error {
		var err error
		out[i], err = r.score(ctx, cells[i], 0)
		return err
	})
	return out, err
}

// mixEvents returns the simulated event count of a cell's two mix runs
// without scoring it (no baselines), for weighting cells by their
// simulated work.
func (r *cellRunner) mixEvents(ctx context.Context, cells []cell) (map[string]uint64, error) {
	events := make([]uint64, len(cells))
	err := parallel(ctx, len(cells), 2, func(ctx context.Context, i int) error {
		c := cells[i]
		for _, bigFirst := range []bool{true, false} {
			variant := c.cfg.Ordered(bigFirst)
			w, err := r.build(c.spec, c.seed, variant.AggregateCapacity(), 0)
			if err != nil {
				return err
			}
			res, err := r.simulate(ctx, variant, c.policy, w, 0, "mix")
			if err != nil {
				return err
			}
			events[i] += res.Events
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(cells))
	for i, c := range cells {
		out[c.key().String()] = events[i]
	}
	return out, nil
}

// batchReference scores the cross-product of the given axes through a
// local experiment.Batch, the engine behind colab.Experiment, colab-serve
// and the fleet workers, and returns the scores by CellKey.
func batchReference(ctx context.Context, scenarios []workload.Spec, cfgs []cpu.Config, policies []string, seeds []uint64) (map[string]metrics.MixScore, error) {
	b := &experiment.Batch{Scenarios: scenarios, Configs: cfgs, Policies: policies, Seeds: seeds, Workers: 2}
	cells, err := b.Run(ctx)
	if err != nil {
		return nil, err
	}
	ref := make(map[string]metrics.MixScore, len(cells))
	for _, c := range cells {
		ref[c.CellKey.String()] = c.Score
	}
	return ref, nil
}

// sameScore reports bit-identity of two scores.
func sameScore(a, b metrics.MixScore) bool {
	return a.HANTT == b.HANTT && a.HSTP == b.HSTP
}
