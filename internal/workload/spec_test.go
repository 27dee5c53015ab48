package workload

import (
	"fmt"
	"strings"
	"testing"

	"colab/internal/mathx"
	"colab/internal/sim"
	"colab/internal/task"
)

// compositionBuild is the reference build of a Table 4 composition: each
// part instantiated from one seeded stream, in part order. The scenario
// route (Composition.Spec().Build) must reproduce it bit for bit.
func compositionBuild(c Composition, seed uint64) (*task.Workload, error) {
	rng := mathx.NewRNG(seed ^ 0xd1b54a32d192ed03)
	w := &task.Workload{Name: c.Index}
	for i, p := range c.Parts {
		b, ok := ByName(p.Bench)
		if !ok {
			return nil, fmt.Errorf("workload: composition %s references unknown benchmark %q", c.Index, p.Bench)
		}
		app, err := b.Instantiate(i, p.Threads, rng)
		if err != nil {
			return nil, err
		}
		if app.NumThreads() != p.Threads {
			return nil, fmt.Errorf("workload: %s/%s requested %d threads, generator produced %d (cap %d)",
				c.Index, p.Bench, p.Threads, app.NumThreads(), b.MaxThreads)
		}
		w.Apps = append(w.Apps, app)
	}
	return w, nil
}

// fingerprintWorkload renders every generation-relevant detail of a built
// workload: app identity, queues, thread names, profiles, programs and
// arrivals. Two byte-identical workloads fingerprint identically.
func fingerprintWorkload(w *task.Workload) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "workload %s\n", w.Name)
	for _, a := range w.Apps {
		fmt.Fprintf(&sb, "app %d %s arrival=%d queues=%v\n", a.ID, a.Name, a.Arrival, a.Queues)
		for _, t := range a.Threads {
			fmt.Fprintf(&sb, "  thread %s profile=%+v ops=%d\n", t.Name, t.Profile, len(t.Program))
			for _, op := range t.Program {
				fmt.Fprintf(&sb, "    %#v\n", op)
			}
		}
	}
	return sb.String()
}

// TestSpecReproducesCompositionBuilds is the tentpole identity: the
// scenario route to every Table 4 composition builds the exact workload
// compositionBuild does — programs, profiles, queues, app IDs, to the
// last bit — at several seeds.
func TestSpecReproducesCompositionBuilds(t *testing.T) {
	for _, comp := range Compositions() {
		for _, seed := range []uint64{1, 7, 42} {
			want, err := compositionBuild(comp, seed)
			if err != nil {
				t.Fatalf("%s: composition build: %v", comp.Index, err)
			}
			got, err := comp.Spec().Build(seed)
			if err != nil {
				t.Fatalf("%s: spec build: %v", comp.Index, err)
			}
			if fw, fg := fingerprintWorkload(want), fingerprintWorkload(got); fw != fg {
				t.Fatalf("%s seed %d: spec build diverges from composition build", comp.Index, seed)
			}
		}
	}
}

// The grammar route must agree too, including the registered-name lookup.
func TestGrammarReproducesCompositionBuilds(t *testing.T) {
	for _, idx := range []string{"Sync-2", "Rand-7"} {
		comp, _ := CompositionByIndex(idx)
		want, err := compositionBuild(comp, 3)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ResolveSpec(idx)
		if err != nil {
			t.Fatal(err)
		}
		got, err := spec.Build(3)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprintWorkload(want) != fingerprintWorkload(got) {
			t.Fatalf("%s: grammar build diverges from composition build", idx)
		}
	}
}

// A seed override must build the exact apps of building the scenario at
// that seed: "Sync-2@seed=7" at any build seed == "Sync-2" at seed 7.
func TestSeedOverrideIdentity(t *testing.T) {
	over, err := ParseSpec("Sync-2@seed=7")
	if err != nil {
		t.Fatal(err)
	}
	w1, err := over.Build(12345)
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := CompositionByIndex("Sync-2")
	w2, err := comp.Spec().Build(7)
	if err != nil {
		t.Fatal(err)
	}
	// Names differ (spec canonical vs index); compare apps only.
	w1.Name, w2.Name = "x", "x"
	if fingerprintWorkload(w1) != fingerprintWorkload(w2) {
		t.Fatalf("seed override does not reproduce the overridden build")
	}
}

// An arrival process must not perturb program generation: the open build's
// programs equal the closed build's, only arrivals differ.
func TestArrivalsDoNotPerturbPrograms(t *testing.T) {
	closed, err := ParseSpec("ferret:4+bodytrack:4")
	if err != nil {
		t.Fatal(err)
	}
	open, err := ParseSpec("ferret:4+bodytrack:4@arrive=poisson(5ms)")
	if err != nil {
		t.Fatal(err)
	}
	wc, err := closed.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	wo, err := open.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if wo.Apps[1].Arrival <= 0 {
		t.Fatalf("poisson arrivals missing: %v", wo.Apps[1].Arrival)
	}
	if wo.Apps[0].Arrival != 0 {
		t.Fatalf("unmodified term must stay closed, got arrival %v", wo.Apps[0].Arrival)
	}
	for i := range wc.Apps {
		wo.Apps[i].Arrival = 0
	}
	wc.Name = wo.Name
	if fingerprintWorkload(wc) != fingerprintWorkload(wo) {
		t.Fatalf("arrival process perturbed program generation")
	}
}

// Arrival processes are deterministic per (seed, term) and differ across
// seeds.
func TestArrivalDeterminism(t *testing.T) {
	build := func(seed uint64) []task.App {
		spec, err := ParseSpec("ferret:2@arrive=uniform(0,50ms)+radix:2@arrive=poisson(3ms)")
		if err != nil {
			t.Fatal(err)
		}
		w, err := spec.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]task.App, len(w.Apps))
		for i, a := range w.Apps {
			out[i] = task.App{Name: a.Name, Arrival: a.Arrival}
		}
		return out
	}
	a, b := build(5), build(5)
	for i := range a {
		if a[i].Arrival != b[i].Arrival {
			t.Fatalf("arrivals differ across identical builds: %v vs %v", a[i].Arrival, b[i].Arrival)
		}
	}
	c := build(6)
	same := true
	for i := range a {
		if a[i].Arrival != c[i].Arrival {
			same = false
		}
	}
	if same {
		t.Fatalf("arrivals identical across different seeds")
	}
}

func TestTraceArrivalAndErrors(t *testing.T) {
	spec, err := ParseSpec("dedup:2*2@arrive=trace(0,10ms)")
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Apps) != 2 {
		t.Fatalf("apps = %d", len(w.Apps))
	}
	if w.Apps[0].Arrival != 0 || w.Apps[1].Arrival != 10*sim.Millisecond {
		t.Fatalf("trace arrivals = %v, %v", w.Apps[0].Arrival, w.Apps[1].Arrival)
	}
	// A count mismatch in either direction errors at build: silently
	// dropped times would turn an intended open stream into a closed run.
	for _, times := range [][]sim.Time{{0}, {0, sim.Millisecond, 2 * sim.Millisecond}} {
		bad := Spec{Name: "x", Terms: []Term{{
			Apps:    []AppSpec{{Bench: "radix", Threads: 2}, {Bench: "fft", Threads: 2}},
			Arrival: Arrival{Kind: ArriveTrace, Times: times},
		}}}
		if _, err := bad.Build(1); err == nil || !strings.Contains(err.Error(), "trace") {
			t.Fatalf("trace count mismatch (%d times) must error, got %v", len(times), err)
		}
	}
}

// A replicated Poisson term is a genuine stream: copies share the process,
// arrivals are cumulative and strictly ordered.
func TestPoissonReplicationIsAStream(t *testing.T) {
	spec, err := ParseSpec("swaptions:2*5@arrive=poisson(5ms)")
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Apps) != 5 {
		t.Fatalf("apps = %d", len(w.Apps))
	}
	for i := 1; i < len(w.Apps); i++ {
		if w.Apps[i].Arrival <= w.Apps[i-1].Arrival {
			t.Fatalf("poisson arrivals not increasing: %v then %v", w.Apps[i-1].Arrival, w.Apps[i].Arrival)
		}
	}
	// Replicas are distinct app instances (different app IDs fork
	// different generator streams).
	if fingerprintApp(w.Apps[0]) == fingerprintApp(w.Apps[1]) {
		t.Fatalf("replicated apps are identical clones")
	}
}

func fingerprintApp(a *task.App) string {
	var sb strings.Builder
	for _, t := range a.Threads {
		fmt.Fprintf(&sb, "%+v|%v\n", t.Profile, t.Program.TotalWork())
	}
	return sb.String()
}

// A miscounting user generator surfaces as an error, not a panic.
func TestMiscountingGeneratorErrors(t *testing.T) {
	MustRegister(Benchmark{
		Name: "spectest-short", Suite: "test", DefaultThreads: 4,
		Gen: func(b *Builder, n int) {
			for i := 0; i < n-1; i++ { // off by one
				b.Thread(fmt.Sprintf("w%d", i), ComputeProfile(b.RNG()), task.Program{task.Compute{Work: 1e6}})
			}
		},
	})
	if _, err := SingleProgram("spectest-short", 4, 1); err == nil || !strings.Contains(err.Error(), "emitted") {
		t.Fatalf("miscounting generator must error, got %v", err)
	}
	spec, err := ParseSpec("spectest-short:4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Build(1); err == nil || !strings.Contains(err.Error(), "emitted") {
		t.Fatalf("miscounting generator must error through Build, got %v", err)
	}
}

func TestSpecBuildErrors(t *testing.T) {
	if _, err := (Spec{Name: "empty"}).Build(1); err == nil {
		t.Fatal("empty spec must error")
	}
	bad := Spec{Name: "bad", Terms: []Term{{Apps: []AppSpec{{Bench: "nosuch", Threads: 2}}}}}
	if _, err := bad.Build(1); err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("unknown benchmark must list registry, got %v", err)
	}
	capped := Spec{Name: "cap", Terms: []Term{{Apps: []AppSpec{{Bench: "fmm", Threads: 4}}}}}
	if _, err := capped.Build(1); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("over-cap thread count must error, got %v", err)
	}
}
