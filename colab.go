// Package colab is a Go reproduction of "COLAB: A Collaborative
// Multi-factor Scheduler for Asymmetric Multicore Processors" (Yu,
// Petoumenos, Janjic, Leather, Thomson — CGO 2020).
//
// It bundles everything the paper's system needs, built from scratch:
//
//   - a deterministic discrete-event simulator of asymmetric multicores
//     (the gem5 substitute) with an arbitrary number of ordered core tiers
//     and per-core DVFS — ARM big.LITTLE is the default two-tier shape,
//     a DynamIQ-style big.MEDIUM.LITTLE machine ships as Config2B2M2S,
//   - a simulated OS scheduling layer with futex-based synchronisation and
//     blocking-blame accounting (the Linux kernel substitute),
//   - five pluggable scheduling policies: Linux CFS, WASH (the prior state
//     of the art), ARM GTS, a Linux-EAS-like energy-aware policy, and
//     COLAB itself,
//   - the PCA + linear-regression speedup model trained from symmetric
//     big-only/little-only runs (Table 2),
//   - synthetic PARSEC 3.0 / SPLASH-2 benchmark generators (Table 3) and
//     the 26 multi-programmed workload compositions (Table 4),
//   - the H_NTT / H_ANTT / H_STP metrics and the full experiment harness
//     regenerating every figure and table of the paper's evaluation.
//
// Quick start — the Experiment session API runs whole evaluation sweeps
// with automatic baseline collection and scoring:
//
//	exp := colab.NewExperiment(
//		colab.WithWorkloads("Sync-2"),
//		colab.WithMachine(colab.Config2B2S),
//		colab.WithPolicies("linux", "wash", "colab"),
//	)
//	res, _ := exp.Run(context.Background())
//	res.WriteTable(os.Stdout)
//
// Single simulations are available too:
//
//	model, _ := colab.TrainSpeedupModel()
//	w, _ := colab.BuildWorkload("Sync-2", 1)
//	res, _ := colab.Run(colab.Config2B2S, colab.NewCOLAB(model), w)
//	res.WriteSummary(os.Stdout)
//
// Custom policies register into the process-wide registry
// (RegisterPolicy) and then work everywhere a policy name is accepted.
// The cmd/ tools expose the same functionality on the command line and
// examples/ holds runnable scenarios.
package colab

import (
	"context"
	"fmt"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/metrics"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/topo"
	"colab/internal/workload"
)

// Core simulation types re-exported for API users.
type (
	// Config is a machine shape: an ordered list of cores drawn from an
	// ascending-capacity tier palette (big/little by default).
	Config = cpu.Config
	// Tier describes one core type: name, relative capacity, clock and
	// DVFS frequency ladder. Build multi-tier machines with
	// NewTieredConfig.
	Tier = cpu.Tier
	// CoreKind is a per-core tier index (Little and Big name the default
	// two-tier palette's indices).
	CoreKind = cpu.Kind
	// DVFSGovernor is the optional Scheduler extension through which a
	// policy programs per-core operating points at dispatch time.
	DVFSGovernor = kernel.DVFSGovernor
	// Core is one simulated CPU (visible to custom schedulers).
	Core = kernel.Core
	// Scheduler is the pluggable policy interface; implement it to drop a
	// custom policy into the simulated kernel.
	Scheduler = kernel.Scheduler
	// Machine is one wired simulation instance.
	Machine = kernel.Machine
	// Params carries kernel costs (context switch, migration).
	Params = kernel.Params
	// Result is the outcome of one simulation.
	Result = kernel.Result
	// Workload is a named set of applications admitted together.
	Workload = task.Workload
	// App is one application (benchmark instance) in a workload.
	App = task.App
	// Thread is one schedulable entity.
	Thread = task.Thread
	// Time is simulated time in nanoseconds.
	Time = sim.Time
	// SpeedupModel is the trained Table 2 performance model.
	SpeedupModel = perfmodel.Model
	// TieredSpeedupModel is the multi-tier extension of SpeedupModel: one
	// independently trained model per upper tier of a palette, collected
	// from that tier's own counter runs instead of interpolating the big
	// anchor.
	TieredSpeedupModel = perfmodel.TieredModel
	// MixScore carries the H_ANTT / H_STP pair of one run.
	MixScore = metrics.MixScore
	// Composition is one Table 4 multi-programmed workload description.
	Composition = workload.Composition
	// Benchmark is one Table 3 synthetic benchmark generator.
	Benchmark = workload.Benchmark
	// Topology describes a machine's socket/LLC-domain layout and
	// per-hop migration cost; attach one to a Config with WithTopology or
	// build a regular layout with NewNUMAConfig. The zero value is the
	// flat (single-domain) machine.
	Topology = topo.Topology
	// TopologyDomain is one shared-LLC core group of a Topology.
	TopologyDomain = topo.Domain
)

// Workload-authoring types: build custom applications against the same
// program DSL the synthetic benchmarks use.
type (
	// WorkProfile is a thread's hidden microarchitectural character; it
	// determines the true big-vs-little speedup and the counters the
	// schedulers observe.
	WorkProfile = cpu.WorkProfile
	// Program is a thread's ordered op list.
	Program = task.Program
	// Compute retires work (1 unit = 1 ns of little-core execution).
	Compute = task.Compute
	// Lock acquires a futex-backed mutex.
	Lock = task.Lock
	// Unlock releases a futex-backed mutex.
	Unlock = task.Unlock
	// Barrier joins an app-scoped barrier.
	Barrier = task.Barrier
	// Put produces into a bounded queue.
	Put = task.Put
	// Get consumes from a bounded queue.
	Get = task.Get
	// Sleep suspends the thread without assigning blame.
	Sleep = task.Sleep
	// Phase switches the thread's active work profile mid-program.
	Phase = task.Phase
	// QueueSpec declares a bounded queue an app's Put/Get ops use.
	QueueSpec = task.QueueSpec
)

// Core kinds.
const (
	Big    = cpu.Big
	Little = cpu.Little
)

// The four evaluated machine shapes (§5.1) plus the tri-gear extension.
var (
	Config2B2S = cpu.Config2B2S
	Config2B4S = cpu.Config2B4S
	Config4B2S = cpu.Config4B2S
	Config4B4S = cpu.Config4B4S
	// Config2B2M2S is the DynamIQ-style 2 big + 2 medium + 2 little
	// machine with DVFS ladders on every tier.
	Config2B2M2S = cpu.Config2B2M2S
	// Config32B32M64S is the committed big-machine palette: a 128-core
	// tri-gear server (64 little + 32 medium + 32 big), whose affinity
	// masks reach past core 63.
	Config32B32M64S = cpu.Config32B32M64S
	// Config64B64S is the 128-core big.LITTLE shape (64 big + 64 little)
	// at the paper's fixed-frequency anchors.
	Config64B64S = cpu.Config64B64S
	// Config2x32B32M64S is the 256-core two-socket tri-gear NUMA palette:
	// each socket holds 32 big + 32 medium + 64 little cores split into
	// two LLC domains, with the default cold-cache migration penalty.
	Config2x32B32M64S = cpu.Config2x32B32M64S
	// Config4x16B16S is the 128-core four-socket big.LITTLE NUMA palette
	// (16 big + 16 little per socket, one LLC domain each).
	Config4x16B16S = cpu.Config4x16B16S
	// Config2x2B2S is the small two-socket NUMA shape (2 big + 2 little
	// per socket) the determinism tests and migration-cost sweeps use.
	Config2x2B2S = cpu.Config2x2B2S
)

// DefaultMigrationPenaltyCycles is the committed NUMA palettes' cold-cache
// migration penalty in destination-core cycles per LLC-domain hop.
const DefaultMigrationPenaltyCycles = topo.DefaultPenaltyCycles

// The standard tiers: the paper's fixed-frequency anchors plus the
// DVFS-laddered variants the tri-gear machine uses.
var (
	TierLittle     = cpu.TierLittle
	TierBig        = cpu.TierBig
	TierMedium     = cpu.TierMedium
	TierLittleDVFS = cpu.TierLittleDVFS
	TierBigDVFS    = cpu.TierBigDVFS
)

// EvaluatedConfigs returns the four paper platform shapes in paper order.
func EvaluatedConfigs() []Config { return cpu.EvaluatedConfigs() }

// NewConfig builds an arbitrary nBig+nLittle machine; bigFirst selects core
// ordering (initial placement follows core order).
func NewConfig(nBig, nLittle int, bigFirst bool) Config {
	return cpu.NewConfig(nBig, nLittle, bigFirst)
}

// NewTieredConfig builds a machine over an arbitrary tier palette (listed
// in ascending capacity with per-tier core counts); bigFirst lays tiers out
// from the fastest cluster down. See cpu.NewTieredConfig for naming rules.
func NewTieredConfig(tiers []Tier, counts []int, bigFirst bool) Config {
	return cpu.NewTieredConfig(tiers, counts, bigFirst)
}

// TriGearTiers returns the three-tier DynamIQ-style palette
// (little+medium+big, all with DVFS ladders) in ascending capacity order.
func TriGearTiers() []Tier { return cpu.TriGearTiers() }

// NewNUMAConfig builds a multi-socket machine: sockets identical sockets,
// each carrying countsPerSocket[i] cores of tiers[i] split contiguously
// into domainsPerSocket shared-LLC domains, with penaltyCycles cold-cache
// migration cost per inter-domain hop (1 hop within a socket, 2 across
// sockets). A penalty of 0 schedules bit-identically to the flat machine.
func NewNUMAConfig(sockets, domainsPerSocket int, tiers []Tier, countsPerSocket []int, penaltyCycles float64, bigFirst bool) Config {
	return cpu.NewNUMAConfig(sockets, domainsPerSocket, tiers, countsPerSocket, penaltyCycles, bigFirst)
}

// WithTopology returns the config with the given socket/LLC-domain layout
// attached (Uniform topologies come from NewNUMAConfig; hand-built ones
// are validated on the next Run).
func WithTopology(cfg Config, t Topology) Config { return cfg.WithTopology(t) }

// UniformTopology builds a regular socket-major layout: sockets ×
// domainsPerSocket LLC domains of coresPerDomain cores each.
func UniformTopology(sockets, domainsPerSocket, coresPerDomain int, penaltyCycles float64) Topology {
	return topo.Uniform(sockets, domainsPerSocket, coresPerDomain, penaltyCycles)
}

// Benchmarks returns the fifteen Table 3 benchmark generators (the fixed
// paper set; RegisteredBenchmarks includes user registrations).
func Benchmarks() []Benchmark { return workload.All() }

// Compositions returns the 26 Table 4 multi-programmed workloads.
func Compositions() []Composition { return workload.Compositions() }

// BuildWorkload instantiates a workload from a registered scenario name (a
// Table 4 index like "Sync-2", or anything from RegisterScenario) or a
// scenario-grammar spec ("ferret:4+bodytrack:8", "Sync-2@seed=7",
// "ferret:4@arrive=poisson(5ms)"). Unknown names error with the registered
// inventories. Each call yields fresh threads. A workload runs once;
// Workload.Instance copies a never-run one for another run.
func BuildWorkload(spec string, seed uint64) (*Workload, error) {
	s, err := workload.ResolveSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("colab: %w", err)
	}
	w, err := s.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("colab: %w", err)
	}
	return w, nil
}

// BuildWorkloadOn is BuildWorkload with a target machine supplied: specs
// whose load generator derives its arrival rate from the machine
// (load=util) need cfg's aggregate capacity; every other spec builds
// identically either way.
func BuildWorkloadOn(spec string, seed uint64, cfg Config) (*Workload, error) {
	s, err := workload.ResolveSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("colab: %w", err)
	}
	w, err := s.BuildFor(seed, cfg.AggregateCapacity())
	if err != nil {
		return nil, fmt.Errorf("colab: %w", err)
	}
	return w, nil
}

// BuildBenchmark instantiates one benchmark alone (the Figure 4 setting).
// Unknown names error with the full registered-benchmark list.
func BuildBenchmark(name string, threads int, seed uint64) (*Workload, error) {
	return workload.SingleProgram(name, threads, seed)
}

// TrainSpeedupModel collects the symmetric training runs and fits the
// standard six-counter speedup model (Table 2). The result is cached
// process-wide.
func TrainSpeedupModel() (*SpeedupModel, error) { return perfmodel.Default() }

// TrainTieredSpeedupModel collects per-tier symmetric training runs over an
// arbitrary palette (ascending capacity, >= 2 tiers) and fits one
// six-counter model per upper tier.
func TrainTieredSpeedupModel(tiers []Tier) (*TieredSpeedupModel, error) {
	return perfmodel.TrainTiered(tiers, perfmodel.CollectOptions{})
}

// TrainTriGearSpeedupModel returns the process-cached tiered model for the
// standard tri-gear palette (TriGearTiers).
func TrainTriGearSpeedupModel() (*TieredSpeedupModel, error) { return perfmodel.DefaultTriGear() }

// mustPolicy builds a built-in policy. Only colab-dvfs can fail, when its
// default tiered model cannot train from the committed benchmarks.
func mustPolicy(name string, ctx policy.Context) Scheduler {
	s, err := policy.New(name, ctx)
	if err != nil {
		panic(err)
	}
	return s
}

// predictorContext wraps an optional model into a policy context.
func predictorContext(model *SpeedupModel) policy.Context {
	ctx := policy.Context{}
	if model != nil {
		ctx.Speedup = model.ThreadPredictor()
	}
	return ctx
}

// NewLinux returns the Linux CFS baseline policy.
func NewLinux() Scheduler { return mustPolicy(policy.Linux, policy.Context{}) }

// NewWASH returns the WASH (CGO 2016) policy driven by the given speedup
// model; nil model selects a neutral predictor.
func NewWASH(model *SpeedupModel) Scheduler {
	return mustPolicy(policy.WASH, predictorContext(model))
}

// NewCOLAB returns the COLAB policy driven by the given speedup model; nil
// model selects a neutral predictor.
func NewCOLAB(model *SpeedupModel) Scheduler {
	return mustPolicy(policy.COLAB, predictorContext(model))
}

// NewCOLABDVFS returns the colab-dvfs policy: COLAB with its label-driven
// DVFS governor and per-tier trained speedup predictions (nil tiered: the
// default tri-gear model). On machines outside the model's palette
// predictions interpolate; on fixed-frequency ones the governor is idle.
func NewCOLABDVFS(model *SpeedupModel, tiered *TieredSpeedupModel) Scheduler {
	ctx := predictorContext(model)
	if tiered != nil {
		ctx.TierSpeedup, ctx.TierSpeedupTiers = tiered.TierPredictor(), tiered.Tiers
	}
	return mustPolicy(policy.COLABDVFS, ctx)
}

// NewGTS returns the ARM Global Task Scheduling-like policy.
func NewGTS() Scheduler { return mustPolicy(policy.GTS, policy.Context{}) }

// NewEAS returns the Linux Energy-Aware-Scheduling-like policy (extension:
// the modern mainline big.LITTLE baseline, post-dating the paper).
func NewEAS() Scheduler { return mustPolicy(policy.EAS, policy.Context{}) }

// Run simulates workload w on config cfg under the given policy with
// default kernel costs. For sweeps (many workloads, machines, policies or
// seeds) prefer the Experiment session API, which parallelises and scores
// automatically; Run and its sibling entry points below are the
// single-shot compatibility surface.
func Run(cfg Config, s Scheduler, w *Workload) (*Result, error) {
	return RunWithParams(cfg, s, w, Params{})
}

// RunWithParams simulates with explicit kernel costs.
func RunWithParams(cfg Config, s Scheduler, w *Workload, p Params) (*Result, error) {
	return RunContext(context.Background(), cfg, s, w, p)
}

// RunContext simulates with explicit kernel costs and cooperative
// cancellation: the simulated kernel's event loop checks ctx periodically
// and returns a wrapped ctx.Err() as soon as the context is done.
func RunContext(ctx context.Context, cfg Config, s Scheduler, w *Workload, p Params) (*Result, error) {
	m, err := kernel.NewMachine(cfg, s, w, p)
	if err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// TraceEvent is one timestamped scheduling event (dispatch, migrate, block,
// wake, preempt, rotate, idle, done).
type TraceEvent = kernel.TraceEvent

// RunTraced simulates like Run while streaming every scheduling event to
// the tracer callback.
func RunTraced(cfg Config, s Scheduler, w *Workload, tracer func(TraceEvent)) (*Result, error) {
	m, err := kernel.NewMachine(cfg, s, w, Params{})
	if err != nil {
		return nil, err
	}
	m.SetTracer(tracer)
	return m.Run()
}

// Score computes H_ANTT / H_STP for a finished mix given per-app big-only
// baseline turnarounds in app order.
func Score(res *Result, baselines []Time) (MixScore, error) {
	if len(baselines) != len(res.Apps) {
		return MixScore{}, fmt.Errorf("colab: %d baselines for %d apps", len(baselines), len(res.Apps))
	}
	return metrics.Score(res, func(i int, _ kernel.AppResult) Time { return baselines[i] })
}

// Durations for workload authors.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)
