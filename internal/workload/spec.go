package workload

// This file defines the parsed scenario model behind the grammar: a Spec
// is an ordered list of Terms, each expanding to one or more benchmark
// instances with optional seed overrides and an arrival process. Table 4
// compositions convert losslessly into single-term Specs (Composition.Spec)
// and their closed-system builds are byte-identical to Composition.Build —
// the golden corpus pins this continuously.

import (
	"fmt"
	"math"

	"colab/internal/loadgen"
	"colab/internal/mathx"
	"colab/internal/sim"
	"colab/internal/task"
)

// buildSalt decorrelates workload generation from other uses of the same
// seed. It must equal the salt Composition.Build has always used: the
// grammar route to a Table 4 index reproduces the composition bit-for-bit.
const buildSalt uint64 = 0xd1b54a32d192ed03

// arrivalSalt decorrelates arrival-time draws from program generation, so
// attaching an arrival process to a term never perturbs the generated
// thread programs.
const arrivalSalt uint64 = 0x5bf03635d1f2b4d1

// loadSalt decorrelates the global load-generator stream (load=util's
// Poisson arrivals) from both program generation and per-term arrival
// draws.
const loadSalt uint64 = 0x94d049bb133111eb

// ArrivalKind enumerates the arrival processes of the scenario grammar.
type ArrivalKind string

// The arrival processes.
const (
	// ArriveClosed is the zero value: every app admitted at time zero.
	ArriveClosed ArrivalKind = ""
	// ArriveFixed admits every app of the term at offset At.
	ArriveFixed ArrivalKind = "fixed"
	// ArriveUniform draws each app's arrival uniformly from [Lo, Hi).
	ArriveUniform ArrivalKind = "uniform"
	// ArrivePoisson is a Poisson process: successive apps of the term
	// arrive after exponential gaps with mean Mean.
	ArrivePoisson ArrivalKind = "poisson"
	// ArriveTrace replays explicit arrival times: the k-th app of the term
	// arrives at Times[k].
	ArriveTrace ArrivalKind = "trace"
	// ArriveTraceFile replays arrival times read from a trace file at
	// parse time (docs/TRACE_FORMAT.md): like ArriveTrace, the k-th app of
	// the term arrives at Times[k]. Path and Digest record where the times
	// came from; the digest travels in the canonical form so cell identity
	// tracks the file's content, not just its name.
	ArriveTraceFile ArrivalKind = "tracefile"
)

// Arrival describes when the apps of one scenario term enter the system.
// The zero value is the closed system (everything at time zero). Random
// processes draw from a dedicated stream that is a pure function of the
// term's effective seed and position, independent of program generation.
type Arrival struct {
	Kind ArrivalKind
	// At is the fixed offset (ArriveFixed).
	At sim.Time
	// Lo, Hi bound the uniform window (ArriveUniform).
	Lo, Hi sim.Time
	// Mean is the mean inter-arrival gap (ArrivePoisson).
	Mean sim.Time
	// Times are the replayed arrival times (ArriveTrace, ArriveTraceFile).
	Times []sim.Time
	// Path is the trace file the times were read from (ArriveTraceFile).
	Path string
	// Digest is the content digest of the trace file (ArriveTraceFile).
	Digest string
}

// times materialises n arrival offsets for one term.
func (a Arrival) times(n int, seed uint64, term int) ([]sim.Time, error) {
	out := make([]sim.Time, n)
	switch a.Kind {
	case ArriveClosed:
	case ArriveFixed:
		if a.At < 0 {
			return nil, fmt.Errorf("negative arrival offset %v", a.At)
		}
		for i := range out {
			out[i] = a.At
		}
	case ArriveUniform:
		if a.Lo < 0 || a.Hi < a.Lo {
			return nil, fmt.Errorf("bad uniform arrival window [%v, %v)", a.Lo, a.Hi)
		}
		rng := arrivalRNG(seed, term)
		for i := range out {
			out[i] = a.Lo + sim.Time(rng.Float64()*float64(a.Hi-a.Lo))
		}
	case ArrivePoisson:
		if a.Mean <= 0 {
			return nil, fmt.Errorf("poisson arrival needs a positive mean gap, got %v", a.Mean)
		}
		rng := arrivalRNG(seed, term)
		var cum float64
		for i := range out {
			cum += rng.Exp(float64(a.Mean))
			if cum > math.MaxInt64/2 {
				return nil, fmt.Errorf("poisson arrivals overflow simulated time")
			}
			out[i] = sim.Time(cum)
		}
	case ArriveTrace, ArriveTraceFile:
		// Strict: a count mismatch in either direction means the spec does
		// not model what its author wrote (extra times silently dropped
		// would turn an intended open stream into a closed no-op).
		if n != len(a.Times) {
			return nil, fmt.Errorf("arrival trace has %d times for %d applications (replicate apps with \"*%d\")", len(a.Times), n, len(a.Times))
		}
		for i := range out {
			if a.Times[i] < 0 {
				return nil, fmt.Errorf("negative arrival time %v in trace", a.Times[i])
			}
			out[i] = a.Times[i]
		}
	default:
		return nil, fmt.Errorf("unknown arrival kind %q", a.Kind)
	}
	return out, nil
}

// arrivalRNG derives the per-term arrival stream.
func arrivalRNG(seed uint64, term int) *mathx.RNG {
	return mathx.NewRNG(seed ^ arrivalSalt ^ (uint64(term+1) * 0x9e3779b97f4a7c15))
}

// AppSpec is one benchmark instance inside a scenario term. Threads <= 0
// selects the benchmark's DefaultThreads.
type AppSpec struct {
	Bench   string
	Threads int
}

// Term is one "+"-separated part of a scenario: either a single benchmark
// instance or the expansion of a registered scenario reference, with
// optional seed override and arrival process.
type Term struct {
	// Source is the registered scenario name this term expanded from (""
	// for a bare benchmark instance); it is what the canonical rendering
	// shows.
	Source string
	// Apps are the benchmark instances, in admission (app-ID) order.
	Apps []AppSpec
	// Seed overrides the build seed for this term's program generation
	// when HasSeed is set. Terms sharing an effective seed share one
	// generation stream, so "Sync-2@seed=7" builds the exact apps of
	// building "Sync-2" at seed 7.
	Seed    uint64
	HasSeed bool
	// Arrival is the term's arrival process (zero value = closed).
	Arrival Arrival
}

// modified reports whether the term carries a seed override or an arrival
// process.
func (t Term) modified() bool { return t.HasSeed || t.Arrival.Kind != ArriveClosed }

// Spec is a parsed scenario: the unit the experiment layer builds and
// scores. Obtain one from ParseSpec (the grammar), from a registered name,
// or from Composition.Spec.
type Spec struct {
	// Name identifies the scenario in results and memo keys: the
	// registered name, a Table 4 index, or the canonical grammar string.
	Name  string
	Terms []Term
	// Load is the scenario's global load-generator transformer (@load=),
	// applied at build time to every term's arrival process. Zero value =
	// none.
	Load loadgen.Load
	// Class is the scenario's declared workload class (@class=), the label
	// experiment.ClassTable regroups by. Empty = unclassified.
	Class Class
}

// NumApps returns the number of applications the spec instantiates.
func (s Spec) NumApps() int {
	n := 0
	for _, t := range s.Terms {
		n += len(t.Apps)
	}
	return n
}

// Open reports whether the spec admits apps over time: any term carries
// an arrival process, or the load generator itself produces one
// (load=util).
func (s Spec) Open() bool {
	for _, t := range s.Terms {
		if t.Arrival.Kind != ArriveClosed {
			return true
		}
	}
	return s.Load.Opens()
}

// Closed returns a copy of the spec with every arrival-shaping element
// stripped: per-term arrival processes and arrival-shaping load
// generators (util, diurnal, burst) go, but a program-shaping load
// (closed think time) stays, because the baseline must run the exact
// thread programs the mix runs. This is the closed-system build used for
// baseline collection and baseline-sharing shard groups.
func (s Spec) Closed() Spec {
	out := Spec{Name: s.Name, Terms: make([]Term, len(s.Terms)), Load: s.Load, Class: s.Class}
	copy(out.Terms, s.Terms)
	for i := range out.Terms {
		out.Terms[i].Arrival = Arrival{}
	}
	if out.Load.ShapesArrivals() {
		out.Load = loadgen.Load{}
	}
	return out
}

// TraceFiles returns the canonical rendering of every term whose arrival
// replays a trace file. Non-empty means the spec depends on local file
// content and cannot travel by grammar string alone — the fleet and serve
// layers reject such specs, naming these terms.
func (s Spec) TraceFiles() []string {
	var out []string
	for _, t := range s.Terms {
		if t.Arrival.Kind == ArriveTraceFile {
			out = append(out, t.canonical())
		}
	}
	return out
}

// Build instantiates the scenario into a runnable workload. Each call
// produces fresh threads; a workload cannot be re-run. Terms without a
// seed override share one generation stream keyed by the build seed
// (exactly Composition.Build's scheme); each distinct override seed opens
// its own stream on first use. Specs whose load generator needs the
// target machine (load=util) must use BuildFor.
func (s Spec) Build(seed uint64) (*task.Workload, error) { return s.BuildFor(seed, 0) }

// BuildFor is Build with the target machine's aggregate capacity (work
// units per nanosecond with every core busy, cpu.Config.AggregateCapacity)
// supplied, which the open-loop utilisation generator (load=util) needs
// to derive its arrival rate. Every other spec ignores capacity, so
// BuildFor(seed, c) == Build(seed) for them.
func (s Spec) BuildFor(seed uint64, capacity float64) (*task.Workload, error) {
	if len(s.Terms) == 0 {
		return nil, fmt.Errorf("workload: scenario %q has no terms", s.Name)
	}
	if err := s.Load.Validate(); err != nil {
		return nil, fmt.Errorf("workload: scenario %s: %w", s.Name, err)
	}
	w := &task.Workload{Name: s.Name}
	streams := make(map[uint64]*mathx.RNG)
	stream := func(sd uint64) *mathx.RNG {
		r, ok := streams[sd]
		if !ok {
			r = mathx.NewRNG(sd ^ buildSalt)
			streams[sd] = r
		}
		return r
	}
	appID := 0
	for ti, term := range s.Terms {
		eff := seed
		if term.HasSeed {
			eff = term.Seed
		}
		rng := stream(eff)
		var apps []*task.App
		for _, as := range term.Apps {
			b, ok := ByName(as.Bench)
			if !ok {
				return nil, fmt.Errorf("workload: scenario %s: %w", s.Name, unknownBenchmarkError(as.Bench))
			}
			n := as.Threads
			if n <= 0 {
				n = b.DefaultThreads
			}
			app, err := b.Instantiate(appID, n, rng)
			if err != nil {
				return nil, fmt.Errorf("workload: scenario %s: %w", s.Name, err)
			}
			if app.NumThreads() != n {
				return nil, fmt.Errorf("workload: %s/%s requested %d threads, generator produced %d (cap %d)",
					s.Name, as.Bench, n, app.NumThreads(), b.MaxThreads)
			}
			appID++
			apps = append(apps, app)
		}
		times, err := term.Arrival.times(len(apps), eff, ti)
		if err != nil {
			return nil, fmt.Errorf("workload: scenario %s term %d: %w", s.Name, ti+1, err)
		}
		for i, app := range apps {
			app.Arrival = times[i]
		}
		w.Apps = append(w.Apps, apps...)
	}
	if err := s.applyLoad(w, seed, capacity); err != nil {
		return nil, fmt.Errorf("workload: scenario %s: %w", s.Name, err)
	}
	return w, nil
}

// applyLoad applies the spec's global load-generator transformer to the
// built workload. Program generation is untouched by every kind except
// closed think time, whose task.Sleep prefixes are part of the programs
// (and therefore of the closed baseline build too).
func (s Spec) applyLoad(w *task.Workload, seed uint64, capacity float64) error {
	switch s.Load.Kind {
	case loadgen.None:
		return nil
	case loadgen.Util:
		// One Poisson stream over all apps in admission order, rate set so
		// the offered load is Target of the machine's absorption rate. The
		// stream draws from a dedicated salt, so it perturbs neither
		// program generation nor per-term arrival processes.
		var total float64
		for _, app := range w.Apps {
			for _, th := range app.Threads {
				total += th.Program.TotalWork()
			}
		}
		gap, err := loadgen.UtilGap(total/float64(len(w.Apps)), capacity, s.Load.Target)
		if err != nil {
			if capacity <= 0 {
				return fmt.Errorf("load=util needs the target machine's aggregate capacity: build with BuildFor (or colab.BuildWorkloadOn)")
			}
			return err
		}
		rng := mathx.NewRNG(seed ^ loadSalt)
		var cum float64
		for _, app := range w.Apps {
			cum += rng.Exp(gap)
			if cum > math.MaxInt64/2 {
				return fmt.Errorf("load=util arrivals overflow simulated time")
			}
			app.Arrival = sim.Time(cum)
		}
	case loadgen.Closed:
		// Closed-loop think time: the k-th admitted app begins after k
		// think pauses, realised as a task.Sleep prefix on each of its
		// threads (sleeps assign no blocking blame). The system stays
		// closed; turnaround includes the think ramp, identically in the
		// mix run and in the app's own baseline.
		for k, app := range w.Apps {
			think := sim.Time(k) * s.Load.Think
			if think == 0 {
				continue
			}
			for _, th := range app.Threads {
				th.Program = append(task.Program{task.Sleep{Duration: think}}, th.Program...)
			}
		}
	case loadgen.Diurnal, loadgen.Burst:
		for _, app := range w.Apps {
			app.Arrival = s.Load.Warp(app.Arrival)
		}
	}
	return nil
}

// Spec converts a Table 4 composition into its scenario form: one closed
// term whose apps are the composition's parts; Build instantiates the parts
// in order from one seeded stream.
func (c Composition) Spec() Spec {
	term := Term{Source: c.Index}
	for _, p := range c.Parts {
		term.Apps = append(term.Apps, AppSpec{Bench: p.Bench, Threads: p.Threads})
	}
	return Spec{Name: c.Index, Terms: []Term{term}}
}
