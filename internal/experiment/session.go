package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/metrics"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/task"
	"colab/internal/workload"
)

// BatchKey identifies one cell of a batch: one (workload, config, policy,
// seed) combination, scored over both core orders.
type BatchKey struct {
	Workload string
	Config   string
	Policy   string
	Seed     uint64
}

// BatchCell is one scored cell. Score is the auto-baselined H_ANTT / H_STP
// pair (big-only-alone baselines, averaged over big-first and little-first
// core orders).
type BatchCell struct {
	Key   BatchKey
	Score metrics.MixScore
	// CellKey is the canonical content address of the cell: the identity
	// the checkpoint journal and the serve cache file it under.
	CellKey CellKey
	// Cached reports the score was replayed from the journal or answered
	// by the cache rather than computed by this run.
	Cached bool
}

// Batch is the context-aware batch executor underneath colab.Experiment:
// it fans the Scenarios x Configs x Policies x Seeds cross-product out over
// a worker pool, collecting and caching big-only baselines automatically.
//
// Results are deterministic and independent of Workers: cells come back in
// cross-product order (seeds outermost, then scenarios, configs, policies
// innermost) and every cell's value is computed by the one single-cell
// path, Runner.specScore.
type Batch struct {
	// Scenarios are grammar/registry scenario specs to run (at least
	// one); a Table 4 composition runs as its Composition.Spec.
	// Open-system specs (with arrival processes) score each app from its
	// own arrival time.
	Scenarios []workload.Spec
	// Configs are the machine shapes to run on (at least one).
	Configs []cpu.Config
	// Policies are registry names (built-in or user-registered).
	Policies []string
	// Seeds drive workload generation; one full sub-matrix per seed.
	Seeds []uint64
	// Params forwards kernel costs.
	Params kernel.Params
	// Workers bounds run parallelism (0 = GOMAXPROCS). A Tracer forces
	// sequential execution regardless, so the event stream is deterministic.
	Workers int
	// Speedup is the predictor handed to AMP-aware policies. When nil, the
	// standard trained model (perfmodel.Default) is substituted.
	Speedup func(*task.Thread) float64
	// Tracer, when set, receives every scheduling event of every mix run
	// (baseline runs are not traced), tagged with the cell it belongs to
	// and the core order of the run (each cell simulates big-first then
	// little-first; core IDs mean different tiers in the two layouts).
	Tracer func(key BatchKey, bigFirst bool, ev kernel.TraceEvent)
	// ShardIndex/ShardCount split the sweep deterministically across
	// independent processes. The assignment unit is the baseline-sharing
	// group — all cells of one (seed, closed canonical scenario), which
	// share big-only-alone baselines — numbered in cross-product order and
	// dealt round-robin, so no baseline is ever computed by two shards.
	// Every shard derives the identical assignment from the batch spec
	// alone, each returns its own cells in cross-product order, and the
	// union across shards is byte-identical to an unsharded run. Zero
	// ShardCount (or 1) runs everything.
	ShardIndex, ShardCount int
	// Observer, when set, receives every cell of this batch's result set
	// in deterministic cross-product order, each as soon as it and all its
	// predecessors have completed — a streaming face whose delivery order
	// is independent of worker scheduling. Cells are delivered on worker
	// goroutines; observers that need to abort use the run context.
	Observer func(BatchCell)
	// Journal, when set, checkpoints the sweep: completed cells are
	// recorded (fsynced) as they land, and cells already on record are
	// replayed instead of recomputed, so a killed sweep resumes where it
	// died with byte-identical final output. Replayed cells stay in the
	// journal; they never enter Cache.
	Journal *Journal
	// Cache, when set, is the content-addressed cell store consulted
	// before and filled after every cell computation; overlapping batches
	// sharing one Cache dedup their common cells (colab-serve's layer).
	Cache *Cache

	// runners pre-seeds per-seed runners so callers (Runner.RunMatrix) can
	// share their baselines with the batch.
	runners map[uint64]*Runner
}

// Validate checks the batch is runnable: every axis non-empty, every policy
// registered or a valid composition, the shard coordinates in range and
// the machine names distinct. Plan and Run call it first.
func (b *Batch) Validate() error {
	if len(b.Scenarios) == 0 {
		return fmt.Errorf("experiment: batch has no workloads")
	}
	if len(b.Configs) == 0 {
		return fmt.Errorf("experiment: batch has no machine configs")
	}
	if len(b.Policies) == 0 {
		return fmt.Errorf("experiment: batch has no policies")
	}
	if len(b.Seeds) == 0 {
		return fmt.Errorf("experiment: batch has no seeds")
	}
	for _, p := range b.Policies {
		if err := policy.Check(p); err != nil {
			return err
		}
	}
	if b.ShardCount < 0 || b.ShardIndex < 0 {
		return fmt.Errorf("experiment: negative shard coordinates %d/%d", b.ShardIndex, b.ShardCount)
	}
	if b.ShardCount > 0 && b.ShardIndex >= b.ShardCount {
		return fmt.Errorf("experiment: shard index %d out of range for %d shards", b.ShardIndex, b.ShardCount)
	}
	seen := make(map[string]bool, len(b.Configs))
	for _, cfg := range b.Configs {
		if err := cfg.Validate(); err != nil {
			return err
		}
		// Cells are identified by Config.Name; two machines sharing a name
		// would be indistinguishable in results and normalisation.
		if seen[cfg.Name] {
			return fmt.Errorf("experiment: duplicate machine name %q in batch (set distinct Config.Name values)", cfg.Name)
		}
		seen[cfg.Name] = true
	}
	return nil
}

// anyNeedsSpeedup reports whether any policy in the sweep consumes the
// trained speedup predictor; pure-baseline sweeps skip training entirely.
func anyNeedsSpeedup(policies []string) bool {
	for _, p := range policies {
		if policy.NeedsSpeedup(p) {
			return true
		}
	}
	return false
}

// runnerFor returns (building if needed) the runner for one seed; it
// memoises baselines, while cells are memoised only by b.Cache.
func (b *Batch) runnerFor(seed uint64, speedup func(*task.Thread) float64) *Runner {
	if r, ok := b.runners[seed]; ok {
		return r
	}
	r := &Runner{Speedup: speedup, Seed: seed, Params: b.Params}
	if b.runners == nil {
		b.runners = make(map[uint64]*Runner)
	}
	b.runners[seed] = r
	return r
}

// Run executes the batch. It returns one cell per cross-product entry, in
// deterministic order, or the first error. Cancelling ctx aborts promptly
// (the kernel run loop itself is context-checked) and surfaces a wrapped
// ctx.Err().
func (b *Batch) Run(ctx context.Context) ([]BatchCell, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiment: batch cancelled: %w", err)
	}
	speedup := b.Speedup
	if speedup == nil && anyNeedsSpeedup(b.Policies) {
		model, err := perfmodel.Default()
		if err != nil {
			return nil, fmt.Errorf("experiment: training default speedup model: %w", err)
		}
		speedup = model.ThreadPredictor()
	}

	type job struct {
		rn *Runner
		planCell
	}
	// The plan (planCells) owns the cross-product enumeration and the
	// baseline-sharing-group shard assignment; a sharded run executes its
	// own subsequence of the plan in plan order.
	var jobs []job
	groups := 0
	for _, cell := range b.planCells() {
		groups = max(groups, cell.group+1)
		if b.ShardCount > 1 && cell.shard != b.ShardIndex {
			continue
		}
		jobs = append(jobs, job{b.runnerFor(cell.seed, speedup), cell})
	}
	// builds holds each baseline-sharing group's one closed build
	// (Spec.BuildClosed of the group's closed scenario at its seed) while
	// the group has cells in flight: every mix run and baseline of the
	// group instances it. left counts each group's unfinished cells in
	// this shard; the last one to finish (computed, cached or replayed)
	// drops the build, so memory holds only the groups in flight.
	var builds memo[int, *task.Workload]
	left := make([]atomic.Int32, groups)
	for _, j := range jobs {
		left[j.group].Add(1)
	}

	workers := b.Workers
	if b.Tracer != nil {
		workers = 1 // keep the traced event stream deterministic
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]BatchCell, len(jobs))
	var (
		next     int64
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
		obsMu    sync.Mutex
		obsDone  []bool
		obsNext  int
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	if b.Observer != nil {
		obsDone = make([]bool, len(jobs))
	}
	// deliver flushes the observer stream: cell i is handed over once every
	// cell before it has completed, so the delivery order is the
	// cross-product order no matter which workers finish first.
	deliver := func(i int) {
		if b.Observer == nil {
			return
		}
		obsMu.Lock()
		obsDone[i] = true
		for obsNext < len(obsDone) && obsDone[obsNext] {
			b.Observer(results[obsNext])
			obsNext++
		}
		obsMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(jobs) || runCtx.Err() != nil {
					return
				}
				j := &jobs[i]
				var (
					score  metrics.MixScore
					cached bool
					err    error
				)
				if b.Journal != nil {
					score, cached = b.Journal.Lookup(j.ck)
				}
				if !cached {
					compute := func() (metrics.MixScore, error) {
						closed, err := builds.Do(runCtx, j.group, func() (*task.Workload, error) {
							return j.spec.Closed().BuildClosed(j.seed)
						})
						if err != nil {
							return metrics.MixScore{}, err
						}
						var tracer func(bool, kernel.TraceEvent)
						if b.Tracer != nil {
							tracer = func(bigFirst bool, ev kernel.TraceEvent) { b.Tracer(j.key, bigFirst, ev) }
						}
						return j.rn.specScore(runCtx, j.spec, closed, j.cfg, j.key.Policy, tracer, nil)
					}
					if b.Cache != nil {
						score, cached, err = b.Cache.Do(runCtx, j.ck, compute)
					} else {
						score, err = compute()
					}
					if err == nil && b.Journal != nil {
						err = b.Journal.Record(j.ck, score)
					}
				}
				if err != nil {
					fail(err)
					return
				}
				if left[j.group].Add(-1) == 0 {
					builds.forget(j.group)
				}
				results[i] = BatchCell{Key: j.key, Score: score, CellKey: j.ck, Cached: cached}
				deliver(i)
			}
		}()
	}
	wg.Wait()
	// The parent context's cancellation wins over any per-cell error it
	// caused (aborted cells surface as kernel cancellation errors).
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("experiment: batch cancelled: %w", err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}
