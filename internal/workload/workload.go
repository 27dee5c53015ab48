// Package workload provides synthetic stand-ins for the paper's PARSEC 3.0
// and SPLASH-2 benchmarks (Table 3) and the 26 multi-programmed workload
// compositions built from them (Table 4), plus the open scenario layer that
// generalises both: a process-wide registry of benchmark generators and
// named scenarios, a composition grammar ("ferret:4+bodytrack:8",
// "Sync-2@seed=7", "ferret:4@arrive=poisson(5ms)") and arrival processes
// for open-system workloads.
//
// Each benchmark is a parametric generator: given a thread count and a
// seed, it emits a task.App whose threads reproduce the benchmark's
// published parallel structure (data-parallel barrier phases, pipelines
// over bounded queues, lock-heavy particle updates), its synchronisation
// rate and communication/computation ratio, and a plausible spread of
// per-thread core sensitivity. Schedulers only ever observe the emergent
// blocking patterns and performance counters, so matching this structure is
// what exercises the paper's policy code paths.
package workload

import (
	"fmt"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/task"
)

// Rate classifies synchronisation intensity (Table 3 vocabulary).
type Rate string

// Table 3 rate values.
const (
	RateLow      Rate = "low"
	RateMedium   Rate = "medium"
	RateHigh     Rate = "high"
	RateVeryHigh Rate = "very high"
)

// Benchmark is one synthetic benchmark generator plus its Table 3
// categorisation. User benchmarks built over the same Gen surface register
// through Register and then resolve everywhere a benchmark name is
// accepted (the scenario grammar, SingleProgram, the cmd tools).
type Benchmark struct {
	Name string
	// Suite is "parsec" or "splash2" for the built-ins; user benchmarks
	// pick any label.
	Suite string
	// SyncRate is the synchronisation intensity (Table 3).
	SyncRate Rate
	// CommComp is the communication-to-computation ratio (Table 3).
	CommComp Rate
	// MaxThreads caps the thread count (the three SPLASH-2 kernels that do
	// not scale past 2 threads with simsmall inputs, §5.2). 0 = unlimited.
	MaxThreads int
	// DefaultThreads is the single-program thread count (Figure 4 uses the
	// simsmall inputs on a 4-core machine). It also fills thread counts the
	// scenario grammar omits ("ferret" alone means "ferret:DefaultThreads").
	DefaultThreads int

	// Gen emits exactly n threads into the builder. It must be a pure
	// function of the builder's RNG stream so a (benchmark, threads, seed)
	// triple is fully reproducible.
	Gen func(b *Builder, n int)
}

// Instantiate builds a fresh App with n threads (clamped to the
// benchmark's supported range) using a deterministic seed. appID must be
// unique within one workload: the kernel scopes futexes by it. A generator
// that emits a different thread count than asked is reported as an error
// (generator authorship is a public registry surface).
func (b Benchmark) Instantiate(appID, n int, rng *mathx.RNG) (*task.App, error) {
	if n < 1 {
		n = 1
	}
	if b.MaxThreads > 0 && n > b.MaxThreads {
		n = b.MaxThreads
	}
	app := &task.App{ID: appID, Name: b.Name}
	ab := &Builder{app: app, rng: rng.Fork(uint64(appID)*7919 + 13)}
	b.Gen(ab, n)
	if len(app.Threads) != n {
		return nil, fmt.Errorf("workload: %s generator emitted %d threads, want %d", b.Name, len(app.Threads), n)
	}
	return app, nil
}

// SingleProgram builds a workload holding one benchmark instance, the
// configuration Figure 4 evaluates. Unknown names error with the full
// registered-benchmark list.
func SingleProgram(bench string, threads int, seed uint64) (*task.Workload, error) {
	b, ok := ByName(bench)
	if !ok {
		return nil, unknownBenchmarkError(bench)
	}
	rng := mathx.NewRNG(seed)
	app, err := b.Instantiate(0, threads, rng)
	if err != nil {
		return nil, err
	}
	return &task.Workload{Name: bench, Apps: []*task.App{app}}, nil
}

// ---------------------------------------------------------------------------
// The app builder: the public authoring surface benchmark generators write
// against. The built-in Table 3 generators use exactly this API.

// ms is one millisecond of little-core work in work units (work units are
// little-core nanoseconds).
const ms = 1e6

// Builder authors one application: it allocates synchronisation-object IDs,
// declares bounded queues and emits threads. A Builder is handed to
// Benchmark.Gen with a deterministic per-app RNG stream; NewAppBuilder
// creates one for standalone app authoring outside the registry.
type Builder struct {
	app    *task.App
	rng    *mathx.RNG
	nextID int
}

// NewAppBuilder starts a standalone app (outside Benchmark.Instantiate).
// appID must be unique within the workload the app will join; the RNG
// stream is forked per-app exactly like registry instantiation, so the same
// (appID, seed) pair reproduces the same app.
func NewAppBuilder(appID int, name string, rng *mathx.RNG) *Builder {
	app := &task.App{ID: appID, Name: name}
	return &Builder{app: app, rng: rng.Fork(uint64(appID)*7919 + 13)}
}

// RNG returns the builder's deterministic random stream; generators draw
// all jitter from it.
func (b *Builder) RNG() *mathx.RNG { return b.rng }

// NewID allocates a fresh app-scoped synchronisation-object ID (for locks
// and barriers).
func (b *Builder) NewID() int {
	b.nextID++
	return b.nextID
}

// Queue declares a bounded queue with the given capacity and returns its
// ID for Put/Get ops.
func (b *Builder) Queue(capacity int) int {
	id := b.NewID()
	b.app.Queues = append(b.app.Queues, task.QueueSpec{ID: id, Capacity: capacity})
	return id
}

// Thread emits one thread running prog with the given work profile.
func (b *Builder) Thread(name string, prof cpu.WorkProfile, prog task.Program) *task.Thread {
	t := &task.Thread{
		App:     b.app,
		Name:    name,
		Profile: prof.Clamp(),
		Program: prog,
	}
	b.app.Threads = append(b.app.Threads, t)
	return t
}

// ---------------------------------------------------------------------------
// Work profiles: the four microarchitectural archetype families. Each
// returns a jittered instance. The noted speedup ranges are big-anchor
// values; on machines with middle tiers each profile's per-tier speedup
// follows cpu.WorkProfile.SpeedupOn (e.g. a ~2.5x-on-big kernel lands near
// ~1.7x on a DynamIQ-style medium core), so the same generators exercise
// any tier palette.

// ComputeProfile: high-ILP floating-point kernels (~2.3-2.8x on big).
func ComputeProfile(rng *mathx.RNG) cpu.WorkProfile {
	return cpu.WorkProfile{
		ILP:           rng.Range(0.70, 0.95),
		BranchRate:    rng.Range(0.05, 0.12),
		MemIntensity:  rng.Range(0.05, 0.20),
		StoreRate:     rng.Range(0.10, 0.30),
		FPRate:        rng.Range(0.45, 0.80),
		CodeFootprint: rng.Range(0.10, 0.30),
	}
}

// MemoryProfile: bandwidth/latency-bound streaming (~1.1-1.5x on big).
func MemoryProfile(rng *mathx.RNG) cpu.WorkProfile {
	return cpu.WorkProfile{
		ILP:           rng.Range(0.10, 0.35),
		BranchRate:    rng.Range(0.04, 0.10),
		MemIntensity:  rng.Range(0.65, 0.95),
		StoreRate:     rng.Range(0.30, 0.60),
		FPRate:        rng.Range(0.10, 0.35),
		CodeFootprint: rng.Range(0.10, 0.40),
	}
}

// BalancedProfile: mixed integer workloads (~1.7-2.2x on big).
func BalancedProfile(rng *mathx.RNG) cpu.WorkProfile {
	return cpu.WorkProfile{
		ILP:           rng.Range(0.40, 0.70),
		BranchRate:    rng.Range(0.08, 0.16),
		MemIntensity:  rng.Range(0.25, 0.50),
		StoreRate:     rng.Range(0.15, 0.40),
		FPRate:        rng.Range(0.20, 0.50),
		CodeFootprint: rng.Range(0.20, 0.50),
	}
}

// BranchyProfile: control-heavy code, e.g. tree mining (~2.0-2.5x on big).
func BranchyProfile(rng *mathx.RNG) cpu.WorkProfile {
	return cpu.WorkProfile{
		ILP:           rng.Range(0.50, 0.80),
		BranchRate:    rng.Range(0.16, 0.28),
		MemIntensity:  rng.Range(0.20, 0.40),
		StoreRate:     rng.Range(0.10, 0.30),
		FPRate:        rng.Range(0.05, 0.25),
		CodeFootprint: rng.Range(0.40, 0.80),
	}
}

// ---------------------------------------------------------------------------
// Structural program builders.

// DataParallelOptions parameterises a barrier-phased data-parallel program.
type DataParallelOptions struct {
	Phases    int
	PhaseWork float64 // mean work units per thread per phase
	Imbalance float64 // per-thread-phase work jitter amplitude
	Decay     bool    // SPLASH-2 LU-style shrinking parallel sections
	LocksPer  int     // critical sections per phase
	CSWork    float64 // work inside each critical section
	// LockSpread is the number of distinct locks (contention knob).
	LockSpread int
	Profile    func(*mathx.RNG) cpu.WorkProfile
	// SkewFirst multiplies thread 0's work (serial-ish leader), 0 = off.
	SkewFirst float64
}

// DataParallel emits n threads running o.Phases barrier-separated phases.
// Critical sections inside a phase hit a random lock from the spread,
// producing futex blocking blame proportional to the sync rate.
func (b *Builder) DataParallel(n int, o DataParallelOptions) {
	if o.LockSpread < 1 {
		o.LockSpread = 1
	}
	bar := b.NewID()
	locks := make([]int, o.LockSpread)
	for i := range locks {
		locks[i] = b.NewID()
	}
	perPhase := 1
	if o.LocksPer > 0 && n > 1 {
		perPhase = 4*o.LocksPer + 1
	}
	if n > 1 {
		perPhase++ // the barrier
	}
	for i := 0; i < n; i++ {
		prof := o.Profile(b.rng)
		ops := make(task.Program, 0, max(o.Phases, 0)*perPhase)
		for ph := 0; ph < o.Phases; ph++ {
			w := b.rng.Jitter(o.PhaseWork, o.Imbalance)
			if o.Decay {
				w *= float64(o.Phases-ph) / float64(o.Phases)
			}
			if i == 0 && o.SkewFirst > 0 {
				w *= o.SkewFirst
			}
			if o.LocksPer > 0 && n > 1 {
				per := w / float64(o.LocksPer+1)
				for l := 0; l < o.LocksPer; l++ {
					lk := locks[b.rng.IntN(len(locks))]
					ops = append(ops,
						task.Compute{Work: per},
						task.Lock{ID: lk},
						task.Compute{Work: b.rng.Jitter(o.CSWork, 0.3)},
						task.Unlock{ID: lk},
					)
				}
				ops = append(ops, task.Compute{Work: per})
			} else {
				ops = append(ops, task.Compute{Work: w})
			}
			if n > 1 {
				ops = append(ops, task.Barrier{ID: bar, Parties: n})
			}
		}
		b.Thread(fmt.Sprintf("w%d", i), prof, ops)
	}
}

// PipeStage describes one pipeline stage.
type PipeStage struct {
	Name     string
	WorkItem float64 // work units per item
	Profile  func(*mathx.RNG) cpu.WorkProfile
}

// Pipeline emits an items-through-stages pipeline over bounded queues (the
// dedup/ferret structure). Threads are spread one per stage first, then
// round-robin; with fewer threads than stages, adjacent stages merge (as
// the real benchmarks do at low thread counts).
func (b *Builder) Pipeline(n int, stages []PipeStage, items, qcap int) {
	if n == 1 {
		// Sequential fallback: all stages fused into one thread.
		total := 0.0
		for _, s := range stages {
			total += s.WorkItem
		}
		ops := make(task.Program, 0, max(items, 0))
		for it := 0; it < items; it++ {
			ops = append(ops, task.Compute{Work: b.rng.Jitter(total, 0.2)})
		}
		b.Thread("s0", stages[0].Profile(b.rng), ops)
		return
	}
	// Merge adjacent stages down to at most n effective stages.
	eff := mergeStages(stages, min(len(stages), n))
	// Thread counts per effective stage: one each, extras round-robin over
	// the interior (parallelisable) stages, matching PARSEC pipelines.
	counts := make([]int, len(eff))
	for i := range counts {
		counts[i] = 1
	}
	extra := n - len(eff)
	for i := 0; extra > 0; i++ {
		idx := 0
		if len(eff) > 2 {
			idx = 1 + i%(len(eff)-2) // interior stages only
		} else {
			idx = i % len(eff)
		}
		counts[idx]++
		extra--
	}
	queues := make([]int, len(eff)-1)
	for i := range queues {
		queues[i] = b.Queue(qcap)
	}
	for s, spec := range eff {
		shares := splitShares(items, counts[s])
		perItem := 1
		if s > 0 {
			perItem++ // the Get
		}
		if s < len(eff)-1 {
			perItem++ // the Put
		}
		for k := 0; k < counts[s]; k++ {
			prof := spec.Profile(b.rng)
			ops := make(task.Program, 0, max(shares[k], 0)*perItem)
			for it := 0; it < shares[k]; it++ {
				if s > 0 {
					ops = append(ops, task.Get{ID: queues[s-1]})
				}
				ops = append(ops, task.Compute{Work: b.rng.Jitter(spec.WorkItem, 0.35)})
				if s < len(eff)-1 {
					ops = append(ops, task.Put{ID: queues[s]})
				}
			}
			b.Thread(fmt.Sprintf("%s%d", spec.Name, k), prof, ops)
		}
	}
}

// mergeStages combines adjacent stages into k groups, summing per-item work
// and keeping the heaviest member's profile and name.
func mergeStages(stages []PipeStage, k int) []PipeStage {
	if k >= len(stages) {
		return stages
	}
	out := make([]PipeStage, 0, k)
	base := len(stages) / k
	rem := len(stages) % k
	idx := 0
	for g := 0; g < k; g++ {
		size := base
		if g < rem {
			size++
		}
		merged := stages[idx]
		heaviest := stages[idx].WorkItem
		for j := idx + 1; j < idx+size; j++ {
			merged.WorkItem += stages[j].WorkItem
			if stages[j].WorkItem > heaviest {
				heaviest = stages[j].WorkItem
				merged.Name = stages[j].Name
				merged.Profile = stages[j].Profile
			}
		}
		out = append(out, merged)
		idx += size
	}
	return out
}

// splitShares divides items across k threads as evenly as possible.
func splitShares(items, k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = items / k
	}
	for i := 0; i < items%k; i++ {
		out[i]++
	}
	return out
}
