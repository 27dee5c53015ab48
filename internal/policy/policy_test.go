package policy

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/task"
	"colab/internal/workload"
)

func TestBuiltinsRegistered(t *testing.T) {
	want := []string{Linux, WASH, COLAB, GTS, EAS, COLABDVFS,
		COLABNoScale, COLABLocal, COLABFlat, COLABNoPull, COLABOracle}
	names := Names()
	for _, n := range want {
		found := false
		for _, got := range names {
			if got == n {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("builtin %q missing from Names() = %v", n, names)
		}
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
}

// Every built-in name builds. The test iterates the built-in table, not
// Names(), which also lists what other tests register.
func TestNewBuildsEveryBuiltin(t *testing.T) {
	if testing.Short() {
		t.Skip("colab-dvfs trains the tiered model; not -short")
	}
	names := make([]string, 0, len(builtins))
	for name := range builtins {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s, err := New(name, Context{})
		if err != nil {
			t.Errorf("New(%s): %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("New(%s) built a scheduler without a name", name)
		}
	}
}

func TestNewReturnsFreshInstances(t *testing.T) {
	a, err := New(Linux, Context{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Linux, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("New returned the same scheduler instance twice")
	}
}

func TestUnknownNameListsRegistry(t *testing.T) {
	_, err := New("bogus", Context{})
	if err == nil {
		t.Fatal("unknown policy must error")
	}
	for _, n := range []string{Linux, COLABDVFS, "bogus"} {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-name error misses %q: %v", n, err)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	if err := Register("", func(Context) (kernel.Scheduler, error) { return cfs.New(), nil }); err == nil {
		t.Error("empty name must error")
	}
	if err := Register("nilfactory", nil); err == nil {
		t.Error("nil factory must error")
	}
	if err := Register(Linux, func(Context) (kernel.Scheduler, error) { return cfs.New(), nil }); err == nil {
		t.Error("collision with a builtin must error")
	}
}

// customCalls counts the builds of the "test-custom-roundtrip" policy.
var customCalls int

func TestRegisterCustomRoundtrip(t *testing.T) {
	const name = "test-custom-roundtrip"
	customCalls = 0
	if err := registerOnce(name, func() error {
		return Register(name, func(ctx Context) (kernel.Scheduler, error) {
			customCalls++
			return cfs.New(), nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(name, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || customCalls != 1 {
		t.Fatalf("factory not invoked exactly once (called=%d)", customCalls)
	}
	if err := Register(name, func(Context) (kernel.Scheduler, error) { return nil, nil }); err == nil {
		t.Fatal("re-registering the same custom name must error")
	}
}

func TestFactoryErrorWrapped(t *testing.T) {
	const name = "test-factory-error"
	if err := registerOnce(name, func() error {
		return Register(name, func(Context) (kernel.Scheduler, error) {
			return nil, fmt.Errorf("boom")
		})
	}); err != nil {
		t.Fatal(err)
	}
	_, err := New(name, Context{})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), name) {
		t.Fatalf("factory error not wrapped with the policy name: %v", err)
	}
}

func TestNeedsSpeedup(t *testing.T) {
	// The registrations fail harmlessly when -count repeats the test. A
	// user policy that shadows a blind composition is a user policy.
	_ = RegisterStage(SlotSelector, "test-needs-speedup", func(Context) (kernel.Stage, error) {
		return cfs.NewSelector(), nil
	})
	_ = Register("linux.allocator+gts.labeler", func(Context) (kernel.Scheduler, error) { return cfs.New(), nil })
	for name, want := range map[string]bool{
		Linux: false, GTS: false, EAS: false, COLABOracle: false,
		WASH: true, COLAB: true, COLABDVFS: true, COLABNoScale: true,
		// Names answer from the stages they run.
		" linux ":                        false,
		"linux.allocator+linux.selector": false,
		"gts.labeler+linux.allocator+linux.selector": false,
		"eas.labeler+colab.governor":                 false,
		" wash ":                                     true,
		"colab.labeler+linux.selector":               true,
		"colab-dvfs.labeler":                         true,
		// Conservative for user stages and policies and for unknown or
		// malformed names.
		"gts.labeler+test-needs-speedup.selector": true,
		"linux.allocator+gts.labeler":             true,
		"some-user-policy":                        true,
		"nosuch.labeler":                          true,
		"gts.labeler+eas.labeler":                 true,
	} {
		if got := NeedsSpeedup(name); got != want {
			t.Errorf("NeedsSpeedup(%s) = %v, want %v", name, got, want)
		}
	}
}

// runMix runs mix (built at seed 1) on cfg under s, with counter synthesis
// forced on when on is set and left at the machine's default otherwise. It
// returns the Result and whether any thread has counters.
func runMix(t *testing.T, cfg cpu.Config, mix string, s kernel.Scheduler, on bool) (*kernel.Result, bool) {
	t.Helper()
	spec, err := workload.ResolveSpec(mix)
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(cfg, s, w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if on {
		m.SetCounters(true)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("%s on %s under %s: %v", mix, cfg.Name, s.Name(), err)
	}
	counted := false
	for _, th := range w.Threads() {
		if th.TotalCounters != (cpu.Vec{}) || th.IntervalCounters != (cpu.Vec{}) {
			counted = true
		}
	}
	return res, counted
}

// TestNeedsSpeedupIsTruthful holds NeedsSpeedup, and so the counter
// default of the pipelines New builds, to what the stages do. Every stage
// in blindStages runs in its minimal composition, beside every registered
// policy reported false, a padded built-in and two compositions of blind
// stages. Each must schedule a Sync and a Rand mix, on the paper shape and
// the tri-gear DVFS palette, without calling its context's predictors, and
// its run without counters (the default) must be deep-equal to a run with
// them forced on. A stage wrongly listed as blind fails by name.
func TestNeedsSpeedupIsTruthful(t *testing.T) {
	ctx := Context{
		Speedup:     func(*task.Thread) float64 { panic("Speedup called") },
		TierSpeedup: func(*task.Thread, int) float64 { panic("TierSpeedup called") },
	}
	type subject struct{ what, name string }
	var subjects []subject
	for _, name := range append(Names(), " linux ", "linux.allocator+linux.selector", "gts.labeler+linux.allocator+linux.selector") {
		if !NeedsSpeedup(name) {
			subjects = append(subjects, subject{"policy " + name, name})
		}
	}
	var stages []string
	for stage := range blindStages {
		stages = append(stages, stage)
	}
	if len(stages) == 0 {
		t.Fatal("blindStages is empty")
	}
	sort.Strings(stages)
	for _, stage := range stages {
		if NeedsSpeedup(stage) {
			t.Errorf("NeedsSpeedup(%q) = true for a stage in blindStages", stage)
		}
		subjects = append(subjects, subject{"stage " + stage, stage})
	}
	for _, sub := range subjects {
		for _, cfg := range []cpu.Config{cpu.Config2B2S, cpu.Config2B2M2S} {
			for _, mix := range []string{"Sync-2", "Rand-7"} {
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%s: %s on %s: %v, but it is listed predictor-blind", sub.what, mix, cfg.Name, p)
						}
					}()
					var res [2]*kernel.Result
					for i, on := range []bool{false, true} {
						s, err := New(sub.name, ctx)
						if err != nil {
							t.Fatal(err)
						}
						var counted bool
						res[i], counted = runMix(t, cfg, mix, s, on)
						if counted != on {
							t.Errorf("%s: %s on %s with counters forced on = %v: threads have counters = %v", sub.what, mix, cfg.Name, on, counted)
						}
					}
					if !reflect.DeepEqual(res[0], res[1]) {
						t.Errorf("%s: %s on %s schedules differently without counters, but it is listed predictor-blind", sub.what, mix, cfg.Name)
					}
				}()
			}
		}
	}
}

// TestNewSetsCounterDefault holds the machine's counter default, with no
// SetCounters call, to the schedulers New builds: blind built-ins and
// compositions of blind stages leave every counter zero with a Result
// deep-equal to a run with counters forced on, while the predictor-reading
// policies, a composition with a user stage and a wrapped blind pipeline
// fill them.
func TestNewSetsCounterDefault(t *testing.T) {
	const user = "test-counter-default"
	if err := registerOnce(user+".selector", func() error {
		return RegisterStage(SlotSelector, user, func(Context) (kernel.Stage, error) {
			return cfs.NewSelector(), nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	// wrapped embeds a scheduler, as a user's wrapper would: the kernel
	// cannot vouch for what its methods read.
	type wrapped struct{ kernel.Scheduler }
	for _, c := range []struct {
		name     string
		wrap     bool
		counters bool
	}{
		{Linux, false, false},
		{GTS, false, false},
		{EAS, false, false},
		{COLABOracle, false, false},
		{"gts.labeler+colab.allocator+colab-noscale.selector+eas.governor", false, false},
		{"eas.labeler+colab.governor", false, false},
		{COLAB, false, true},
		{WASH, false, true},
		{COLABDVFS, false, true},
		{"gts.labeler+" + user + ".selector", false, true},
		{Linux, true, true},
	} {
		for _, mix := range []string{"Sync-2", "Rand-7"} {
			build := func() kernel.Scheduler {
				s, err := New(c.name, Context{})
				if err != nil {
					t.Fatal(err)
				}
				if c.wrap {
					return wrapped{s}
				}
				return s
			}
			what := c.name
			if c.wrap {
				what = "wrapped " + c.name
			}
			res, counted := runMix(t, cpu.Config2B2M2S, mix, build(), false)
			if counted != c.counters {
				t.Errorf("%s on %s: threads have counters = %v by default, want %v", mix, what, counted, c.counters)
			}
			if !c.wrap && counted != NeedsSpeedup(c.name) {
				t.Errorf("%s on %s: threads have counters = %v by default, but NeedsSpeedup = %v", mix, what, counted, NeedsSpeedup(c.name))
			}
			if c.counters {
				continue
			}
			on, counted := runMix(t, cpu.Config2B2M2S, mix, build(), true)
			if !counted {
				t.Errorf("%s on %s: no counters with synthesis forced on", mix, what)
			}
			if !reflect.DeepEqual(res, on) {
				t.Errorf("%s on %s: Result differs from a run with counters forced on", mix, what)
			}
		}
	}
}

// Surrounding whitespace is not part of a policy name: Canonical ignores
// it, so Check and New must too, or a padded name would be filed under a
// cell key it cannot run. The scheduler is named after the trimmed name.
func TestPaddedNamesRun(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{" colab", COLAB},
		{"linux\t", Linux},
		{"\ncolab-nopull ", COLABNoPull},
		{" colab.labeler +colab.selector ", "colab.labeler +colab.selector"},
	} {
		if err := Check(c.name); err != nil {
			t.Errorf("Check(%q): %v", c.name, err)
		}
		s, err := New(c.name, Context{})
		if err != nil {
			t.Errorf("New(%q): %v", c.name, err)
			continue
		}
		if s.Name() != c.want {
			t.Errorf("New(%q) named %q, want %q", c.name, s.Name(), c.want)
		}
	}
}

// Every built-in is its composition: the table rows are written in
// canonical form, and each built-in builds a pipeline named after itself.
func TestEveryBuiltinHasItsComposition(t *testing.T) {
	for _, name := range []string{Linux, WASH, COLAB, GTS, EAS, COLABDVFS,
		COLABNoScale, COLABLocal, COLABFlat, COLABNoPull, COLABOracle} {
		comp, ok := CanonicalComposition(name)
		if !ok {
			t.Errorf("no composition for %s", name)
			continue
		}
		if got := Canonical(comp); got != comp {
			t.Errorf("%s: composition %q is not canonical (%q)", name, comp, got)
		}
		if Canonical(name) != name {
			t.Errorf("Canonical(%s) = %q, want the name itself", name, Canonical(name))
		}
		if name == COLABDVFS {
			continue // trains the tiered model; TestNewBuildsEveryBuiltin covers it
		}
		s, err := New(name, Context{})
		if err != nil {
			t.Errorf("New(%s): %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("New(%s) named %q", name, s.Name())
		}
	}
	if _, ok := CanonicalComposition("colab.labeler"); ok {
		t.Error("a composition name is not a built-in")
	}
}
