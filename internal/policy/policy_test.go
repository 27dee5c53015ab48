package policy

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"colab/internal/kernel"
	"colab/internal/sched/cfs"
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
	for name, want := range map[string]bool{
		Linux: false, GTS: false, EAS: false, COLABOracle: false,
		WASH: true, COLAB: true, COLABDVFS: true, COLABNoScale: true,
		"some-user-policy": true, // conservative for unknown names
	} {
		if got := NeedsSpeedup(name); got != want {
			t.Errorf("NeedsSpeedup(%s) = %v, want %v", name, got, want)
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
