// Package experiment is the evaluation harness: it reproduces the paper's
// 312-simulation matrix (26 Table 4 workloads x 4 hardware configs x 3
// schedulers, each averaged over big-first and little-first core orders),
// the Figure 4 single-program study, the Figure 8/9 regroupings, and the
// design-choice ablations.
package experiment

import (
	"context"
	"fmt"
	"strconv"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/metrics"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// Scheduler kinds the harness can instantiate: aliases of the registry's
// built-in policy names (internal/policy), kept so existing call sites read
// naturally. Custom registered policies work everywhere these do.
const (
	SchedLinux = policy.Linux
	SchedWASH  = policy.WASH
	SchedCOLAB = policy.COLAB
	SchedGTS   = policy.GTS
	SchedEAS   = policy.EAS
	// SchedCOLABDVFS is COLAB with its native DVFS governor and per-tier
	// trained speedup models (tri-gear extension; identical to SchedCOLAB
	// on fixed-frequency machines apart from the per-tier predictions).
	SchedCOLABDVFS = policy.COLABDVFS
	// Ablation variants of COLAB (DESIGN.md §4).
	SchedCOLABNoScale = policy.COLABNoScale // scale-slice fairness off
	SchedCOLABLocal   = policy.COLABLocal   // biased-global selector off
	SchedCOLABFlat    = policy.COLABFlat    // hierarchical allocator off
	SchedCOLABNoPull  = policy.COLABNoPull  // big-pulls-little off
	SchedCOLABOracle  = policy.COLABOracle  // ground-truth speedup predictor
)

// PaperSchedulers are the three schedulers of the paper's evaluation.
func PaperSchedulers() []string { return []string{SchedLinux, SchedWASH, SchedCOLAB} }

// Runner executes and memoises simulations. It is safe for concurrent use;
// the heavy entry points fan out over a worker pool internally. Its one
// memo is a cell Cache, which holds the runner's scored cells and the
// big-only-alone baselines they are scored against.
type Runner struct {
	// Speedup is the online predictor given to the AMP-aware schedulers.
	// Defaults to the lazily trained standard model.
	Speedup func(*task.Thread) float64
	// Seed drives workload generation. Two core orders of the same seed
	// form one experiment.
	Seed uint64
	// Params forwards kernel costs.
	Params kernel.Params
	// Workers bounds run parallelism (0 = GOMAXPROCS).
	Workers int

	// cache memoises the runner's scored cells (the matrix methods'
	// batches) and their baselines. A Runner that Batch.Run builds for
	// itself shares the batch's memo; a nil cache memoises nothing.
	cache *Cache
}

// NewRunner returns a Runner using the standard trained speedup model.
func NewRunner(seed uint64) (*Runner, error) {
	model, err := perfmodel.Default()
	if err != nil {
		return nil, fmt.Errorf("experiment: training default speedup model: %w", err)
	}
	return &Runner{
		Speedup: model.ThreadPredictor(),
		Seed:    seed,
		cache:   NewCache(),
	}, nil
}

// NewScheduler instantiates a policy by kind through the registry, wiring
// in the runner's speedup predictors. Unknown kinds error with the full
// registered-policy list.
func (r *Runner) NewScheduler(kind string) (kernel.Scheduler, error) {
	return policy.New(kind, policy.Context{Speedup: r.Speedup})
}

// run is the one place a kernel.Machine is built and run: w on cfg under
// s, with every scheduling event sent to tracer when it is non-nil. The
// harness reads nothing of a run but its Result, so it keeps the machine's
// counter default: no synthesis under a predictor-blind pipeline
// (kernel.MarkPredictorBlind), whose schedule is the same either way.
func (r *Runner) run(ctx context.Context, cfg cpu.Config, s kernel.Scheduler, w *task.Workload, tracer func(kernel.TraceEvent)) (*kernel.Result, error) {
	m, err := kernel.NewMachine(cfg, s, w, r.Params)
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		m.SetTracer(tracer)
	}
	return m.RunContext(ctx)
}

// runPolicy is run under the registered policy kind.
func (r *Runner) runPolicy(ctx context.Context, cfg cpu.Config, kind string, w *task.Workload, tracer func(kernel.TraceEvent)) (*kernel.Result, error) {
	s, err := r.NewScheduler(kind)
	if err != nil {
		return nil, err
	}
	return r.run(ctx, cfg, s, w, tracer)
}

// ---------------------------------------------------------------------------
// Baselines: each app of a scenario alone on the all-big variant.

// specAlone isolates app appIdx of closed, the scenario's closed build
// (Spec.BuildClosed), as a fresh instance: the exact thread programs and
// profiles the app has inside the mix. The isolated app runs closed: the
// baseline is the app alone with the machine to itself from time zero,
// which open-system turnarounds — measured from each app's own arrival —
// are compared against.
func specAlone(spec workload.Spec, closed *task.Workload, appIdx int) (*task.Workload, error) {
	if appIdx < 0 || appIdx >= len(closed.Apps) {
		return nil, fmt.Errorf("experiment: app index %d out of range for %s", appIdx, spec.Name)
	}
	app := closed.Apps[appIdx].Instance()
	return &task.Workload{Name: spec.Name + "/" + app.Name, Apps: []*task.App{app}}, nil
}

// specBaselines returns (memoised) the turnaround of every app of spec
// running alone on an all-big machine with the same core count as cfg;
// closed is the spec's closed build, which a baseline run instances.
// Each memo key is the app's BaselineKey — the CellKey of the baseline run
// itself (the closed canonical form of the scenario under linux on the
// symmetric big machine) plus the app index — so arrival variants of one
// mix share their baselines and every shard derives the same keys
// independently.
func (r *Runner) specBaselines(ctx context.Context, spec workload.Spec, closed *task.Workload, cfg cpu.Config) ([]sim.Time, error) {
	n := cfg.NumCores()
	cellKey := baselineCellKey(spec, n, r.Seed, r.Params)
	bases := make([]sim.Time, spec.NumApps())
	for i := range bases {
		v, err := r.baseline(ctx, appBaselineKey(cellKey, i), n, func() (*task.Workload, error) {
			return specAlone(spec, closed, i)
		})
		if err != nil {
			return nil, fmt.Errorf("experiment: baseline %s app %d: %w", spec.Name, i, err)
		}
		bases[i] = v
	}
	return bases, nil
}

// baseline is the one baseline path: it returns the turnaround filed
// under key in the runner's cache, or runs the single-app workload alone
// builds on the symmetric big machine of the given core count under linux
// and files it. Concurrent callers of one key share one run.
func (r *Runner) baseline(ctx context.Context, key string, cores int, alone func() (*task.Workload, error)) (sim.Time, error) {
	run := func() (sim.Time, error) {
		w, err := alone()
		if err != nil {
			return 0, err
		}
		res, err := r.runPolicy(ctx, cpu.NewSymmetric(cpu.Big, cores), SchedLinux, w, nil)
		if err != nil {
			return 0, err
		}
		return res.Apps[0].Turnaround, nil
	}
	if r.cache == nil {
		return run()
	}
	v, _, err := r.cache.baselines.Do(ctx, key, run)
	return v, err
}

// ---------------------------------------------------------------------------
// Mix experiments.

// BaselineKey is the content address of one big-only-alone baseline: the
// CellKey of the closed scenario under linux on the symmetric big machine,
// suffixed with the app index. Cells of different grammar spellings (and
// of different arrival variants) of one scenario resolve to the same
// baseline keys, which is what lets shards and the serve cache dedup the
// shared baseline work.
func BaselineKey(spec workload.Spec, appIdx, cores int, seed uint64, params kernel.Params) string {
	return appBaselineKey(baselineCellKey(spec, cores, seed, params), appIdx)
}

// baselineCellKey renders the CellKey every BaselineKey of spec on cores
// cores starts with.
func baselineCellKey(spec workload.Spec, cores int, seed uint64, params kernel.Params) string {
	return NewCellKey(spec.Closed(), SchedLinux, cpu.NewSymmetric(cpu.Big, cores), seed, params).String()
}

func appBaselineKey(cellKey string, appIdx int) string {
	return cellKey + "|app=" + strconv.Itoa(appIdx)
}

// score is the one scoring of a mix result: H_ANTT / H_STP of res
// against each app's big-only-alone baseline.
func score(res *kernel.Result, bases []sim.Time) (metrics.MixScore, error) {
	return metrics.Score(res, func(i int, _ kernel.AppResult) sim.Time { return bases[i] })
}

// mixInstance is one mix run's workload: an instance of closed, the
// spec's closed build, with the spec's arrivals for machine cfg stamped on.
func mixInstance(spec workload.Spec, closed *task.Workload, seed uint64, cfg cpu.Config) (*task.Workload, error) {
	w := closed.Instance()
	if err := spec.Arrive(w, seed, cfg.AggregateCapacity()); err != nil {
		return nil, err
	}
	return w, nil
}

// specScore simulates one cell: both core orders of the mix (§5.1),
// each an instance of closed (the spec's closed build) with the spec's
// arrivals for that machine, scored against the (memoised) baselines of
// specBaselines. The mix runs come first, so a worker whose baselines
// another worker is running keeps simulating instead of waiting. It memoises nothing itself
// — callers route it through a Cache. A non-nil tracer receives every
// scheduling event of the two mix runs (baseline runs are not traced); a
// non-nil onRun receives each mix run's result.
func (r *Runner) specScore(ctx context.Context, spec workload.Spec, closed *task.Workload, cfg cpu.Config, kind string, tracer func(bigFirst bool, ev kernel.TraceEvent), onRun func(bigFirst bool, res *kernel.Result)) (metrics.MixScore, error) {
	orders := []bool{true, false} // big-first, little-first
	runs := make([]*kernel.Result, len(orders))
	for i, bigFirst := range orders {
		variant := cfg.Ordered(bigFirst)
		w, err := mixInstance(spec, closed, r.Seed, variant)
		if err != nil {
			return metrics.MixScore{}, err
		}
		var tr func(kernel.TraceEvent)
		if tracer != nil {
			bf := bigFirst
			tr = func(ev kernel.TraceEvent) { tracer(bf, ev) }
		}
		res, err := r.runPolicy(ctx, variant, kind, w, tr)
		if err != nil {
			return metrics.MixScore{}, fmt.Errorf("experiment: %s on %s under %s: %w", spec.Name, variant.Name, kind, err)
		}
		runs[i] = res
	}
	bases, err := r.specBaselines(ctx, spec, closed, cfg)
	if err != nil {
		return metrics.MixScore{}, err
	}
	var total metrics.MixScore
	for i, res := range runs {
		s, err := score(res, bases)
		if err != nil {
			return metrics.MixScore{}, err
		}
		if onRun != nil {
			onRun(orders[i], res)
		}
		total.HANTT += s.HANTT / float64(len(orders))
		total.HSTP += s.HSTP / float64(len(orders))
	}
	return total, nil
}

// runBatch is the one matrix path: it runs specs x cfgs x kinds for the
// runner's seed through the Batch engine, sharing the runner's
// predictors and its cache of cells and baselines, and returns each
// cell's score by its (spec, config, kind) indexes.
func (r *Runner) runBatch(ctx context.Context, specs []workload.Spec, cfgs []cpu.Config, kinds []string) (func(s, c, k int) metrics.MixScore, error) {
	b := &Batch{
		Scenarios: specs,
		Configs:   cfgs,
		Policies:  kinds,
		Seeds:     []uint64{r.Seed},
		Params:    r.Params,
		Workers:   r.Workers,
		Speedup:   r.Speedup,
		Cache:     r.cache,
	}
	cells, err := b.Run(ctx)
	if err != nil {
		return nil, err
	}
	return func(s, c, k int) metrics.MixScore { return cells[(s*len(cfgs)+c)*len(kinds)+k].Score }, nil
}

// Cell is one (workload, config, scheduler) outcome normalised to Linux.
type Cell struct {
	Workload string
	Class    workload.Class
	Config   string
	Sched    string
	Raw      metrics.MixScore
	Norm     metrics.MixScore // relative to Linux on the same workload+config
}

// RunMatrix evaluates the given compositions x configs x schedulers in
// parallel and returns one Cell per combination. Linux cells carry
// Norm = {1, 1}.
func (r *Runner) RunMatrix(comps []workload.Composition, cfgs []cpu.Config, kinds []string) ([]Cell, error) {
	return r.RunMatrixContext(context.Background(), comps, cfgs, kinds)
}

// RunMatrixContext is RunMatrix with cooperative cancellation: the
// scenario matrix of the compositions' specs, with Class taken from the
// compositions.
func (r *Runner) RunMatrixContext(ctx context.Context, comps []workload.Composition, cfgs []cpu.Config, kinds []string) ([]Cell, error) {
	specs := make([]workload.Spec, len(comps))
	for i, c := range comps {
		specs[i] = c.Spec()
	}
	cells, err := r.ScenarioMatrixContext(ctx, specs, cfgs, kinds)
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].Class = comps[i/(len(cfgs)*len(kinds))].Class
	}
	return cells, nil
}

// ---------------------------------------------------------------------------
// Single-program experiments (Figure 4).

// SingleScore is one benchmark's H_NTT under one scheduler.
type SingleScore struct {
	Bench string
	Sched string
	HNTT  float64
}

// SingleProgram evaluates one benchmark alone on cfg under kind, averaged
// over core orders, returning H_NTT. The program is built once; the
// baseline and both core orders run instances of it. The baseline key
// stays outside CellKey: workload.SingleProgram seeds its generator
// without Spec.BuildFor's salt, so it is not a Spec cell. The key carries
// the params digest, so a runner whose Params change runs a fresh
// baseline.
func (r *Runner) SingleProgram(bench string, threads int, cfg cpu.Config, kind string) (SingleScore, error) {
	w, err := workload.SingleProgram(bench, threads, r.Seed)
	if err != nil {
		return SingleScore{}, err
	}
	ctx := context.Background()
	cores := cfg.NumCores()
	key := fmt.Sprintf("single|%s|%d|%d|%d|%s", bench, threads, cores, r.Seed, ParamsDigest(r.Params))
	base, err := r.baseline(ctx, key, cores, func() (*task.Workload, error) { return w.Instance(), nil })
	if err != nil {
		return SingleScore{}, err
	}
	var hntt float64
	orders := []bool{true, false}
	for _, bigFirst := range orders {
		variant := cfg.Ordered(bigFirst)
		res, err := r.runPolicy(ctx, variant, kind, w.Instance(), nil)
		if err != nil {
			return SingleScore{}, fmt.Errorf("experiment: single %s on %s under %s: %w", bench, variant.Name, kind, err)
		}
		hntt += metrics.HNTT(res.Apps[0].Turnaround, base) / float64(len(orders))
	}
	return SingleScore{Bench: bench, Sched: kind, HNTT: hntt}, nil
}
