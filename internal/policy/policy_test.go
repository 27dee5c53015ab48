package policy

import (
	"fmt"
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

func TestNewBuildsEveryBuiltin(t *testing.T) {
	if testing.Short() {
		t.Skip("colab-dvfs trains the tiered model; not -short")
	}
	for _, name := range Names() {
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

func TestRegisterCustomRoundtrip(t *testing.T) {
	const name = "test-custom-roundtrip"
	called := 0
	if err := Register(name, func(ctx Context) (kernel.Scheduler, error) {
		called++
		return cfs.New(), nil
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(name, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || called != 1 {
		t.Fatalf("factory not invoked exactly once (called=%d)", called)
	}
	if err := Register(name, func(Context) (kernel.Scheduler, error) { return nil, nil }); err == nil {
		t.Fatal("re-registering the same custom name must error")
	}
}

func TestFactoryErrorWrapped(t *testing.T) {
	const name = "test-factory-error"
	MustRegister(name, func(Context) (kernel.Scheduler, error) {
		return nil, fmt.Errorf("boom")
	})
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

// TestNeedsSpeedupIsTruthful holds NeedsSpeedup to what the policies do:
// the sweep harness trains no model and synthesises no counters for a
// policy it reports false for, so each such built-in must schedule a Sync
// and a Rand mix, on the paper shape and the tri-gear palette, without
// ever calling its context's predictors.
func TestNeedsSpeedupIsTruthful(t *testing.T) {
	ctx := Context{
		Speedup:     func(*task.Thread) float64 { panic("Speedup called") },
		TierSpeedup: func(*task.Thread, int) float64 { panic("TierSpeedup called") },
	}
	// Beyond the registered names: a padded built-in and two compositions
	// of blind stages, which NeedsSpeedup answers from their stages.
	extra := []string{" linux ", "linux.allocator+linux.selector", "gts.labeler+linux.allocator+linux.selector"}
	for _, name := range extra {
		if NeedsSpeedup(name) {
			t.Errorf("NeedsSpeedup(%q) = true, but none of its stages reads a predictor", name)
		}
	}
	for _, name := range append(Names(), extra...) {
		if NeedsSpeedup(name) {
			continue
		}
		for _, cfg := range []cpu.Config{cpu.Config2B2S, cpu.Config2B2M2S} {
			for _, mix := range []string{"Sync-2", "Rand-7"} {
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%s on %s under %s: %v, but NeedsSpeedup(%q) is false", mix, cfg.Name, name, p, name)
						}
					}()
					spec, err := workload.ResolveSpec(mix)
					if err != nil {
						t.Fatal(err)
					}
					w, err := spec.Build(1)
					if err != nil {
						t.Fatal(err)
					}
					s, err := New(name, ctx)
					if err != nil {
						t.Fatal(err)
					}
					m, err := kernel.NewMachine(cfg, s, w, kernel.Params{})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := m.Run(); err != nil {
						t.Fatalf("%s on %s under %s: %v", mix, cfg.Name, name, err)
					}
				}()
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
