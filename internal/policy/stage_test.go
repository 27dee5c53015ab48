package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/sched/colab"
)

func TestBuiltinStagesRegistered(t *testing.T) {
	want := map[Slot][]string{
		SlotLabeler:   {COLAB, COLABDVFS, COLABOracle, EAS, GTS, WASH},
		SlotAllocator: {COLAB, COLABFlat, EAS, GTS, Linux, WASH},
		SlotSelector:  {COLAB, COLABLocal, COLABNoPull, COLABNoScale, EAS, GTS, Linux, WASH},
		SlotGovernor:  {COLAB, EAS},
	}
	for slot, names := range want {
		got := StageNames(slot)
		if !sort.StringsAreSorted(got) {
			t.Errorf("StageNames(%s) not sorted: %v", slot, got)
		}
		for _, n := range names {
			found := false
			for _, g := range got {
				if g == n {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("stage %s.%s missing from registry: %v", n, slot, got)
			}
		}
	}
}

func TestCompositionGrammar(t *testing.T) {
	for name, wantErr := range map[string]string{
		"colab.labeler+wash.selector+colab.governor": "",
		"colab.labeler":                            "", // defaults fill allocator+selector
		"eas.governor":                             "",
		"colab.labeler+colab.labeler":              "two labeler stages",
		"colab.labeler+gts.labeler":                "two labeler stages",
		"colab.badslot+linux.selector":             "unknown stage slot",
		"nope.labeler":                             "registered labelers",
		"+colab.selector":                          "bad pipeline stage",
		"colab.labeler+":                           "bad pipeline stage",
		".labeler":                                 "unknown policy", // no family name: not grammar
		"wash.allocator+gts.selector":              "",               // aliases of the CFS stages
		"colab.governor+colab.labeler":             "",               // order-free grammar
		"linux.allocator+linux.selector":           "",
		"colab.selector+colab.selector+x.governor": "two selector stages",
	} {
		err := Check(name)
		if wantErr == "" {
			if err != nil {
				t.Errorf("Check(%q): unexpected error %v", name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("Check(%q) = %v, want error containing %q", name, err, wantErr)
		}
	}
}

// Unknown stages must list the slot's registered names, mirroring the
// unknown-policy behaviour.
func TestUnknownStageListsRegistry(t *testing.T) {
	_, err := New("bogus.selector", Context{})
	if err == nil {
		t.Fatal("unknown selector must error")
	}
	for _, want := range []string{"bogus", "colab", "eas", "linux", "wash", "registered selectors"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-stage error misses %q: %v", want, err)
		}
	}
	if _, err := NewStage(SlotGovernor, "bogus", Context{}); err == nil ||
		!strings.Contains(err.Error(), "registered governors") {
		t.Errorf("NewStage unknown error = %v", err)
	}
	if _, err := NewStage("bogusslot", "colab", Context{}); err == nil ||
		!strings.Contains(err.Error(), "labeler, allocator, selector, governor") {
		t.Errorf("NewStage unknown-slot error = %v", err)
	}
}

// A whole-policy registration shadows the composition grammar for the same
// name string.
func TestPolicyNameShadowsComposition(t *testing.T) {
	const name = "test-shadow.labeler"
	built := 0
	MustRegister(name, func(Context) (kernel.Scheduler, error) {
		built++
		return cfs.New(), nil
	})
	if err := Check(name); err != nil {
		t.Fatalf("registered name must check clean: %v", err)
	}
	if _, err := New(name, Context{}); err != nil || built != 1 {
		t.Fatalf("whole-policy factory not used (err=%v, built=%d)", err, built)
	}
}

// Compositions build fresh pipelines per call and wire the context's
// predictor into the stages that take one.
func TestCompositionBuildsFreshPipelines(t *testing.T) {
	const name = "colab.labeler+colab.allocator+colab.selector"
	a, err := New(name, Context{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(name, Context{})
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("composition returned the same scheduler twice")
	}
	if a.Name() != name {
		t.Fatalf("pipeline name = %q", a.Name())
	}
}

// RegisterStage validation: slots, names, nil factories, collisions.
func TestRegisterStageValidation(t *testing.T) {
	ok := func(Context) (kernel.Stage, error) { return colab.NewLabeler(nil, nil, nil), nil }
	for _, tc := range []struct {
		slot Slot
		name string
		f    StageFactory
		want string
	}{
		{"nope", "x", ok, "unknown stage slot"},
		{SlotLabeler, "", ok, "empty stage name"},
		{SlotLabeler, "a.b", ok, "may not contain"},
		{SlotLabeler, "a+b", ok, "may not contain"},
		{SlotLabeler, "a b", ok, "may not contain"},
		{SlotLabeler, "x", nil, "nil factory"},
		{SlotLabeler, COLAB, ok, "already registered"},
	} {
		err := RegisterStage(tc.slot, tc.name, tc.f)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RegisterStage(%s, %q) = %v, want %q", tc.slot, tc.name, err, tc.want)
		}
	}
}

// A stage registered under the wrong slot is rejected at build time, not
// silently run.
func TestCompositionRejectsWrongStageKind(t *testing.T) {
	MustRegisterStage(SlotSelector, "test-notasel", func(Context) (kernel.Stage, error) {
		return colab.NewLabeler(nil, nil, nil), nil // a labeler, not a selector
	})
	_, err := New("test-notasel.selector", Context{})
	if err == nil || !strings.Contains(err.Error(), "does not implement the selector interface") {
		t.Fatalf("wrong-kind stage error = %v", err)
	}
}

// Both registry levels must be safe under concurrent registration, lookup
// and instantiation (run with -race in CI).
func TestRegistryConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("conc-%d", i)
			if err := Register("policy-"+name, func(Context) (kernel.Scheduler, error) {
				return cfs.New(), nil
			}); err != nil {
				t.Errorf("Register: %v", err)
			}
			if err := RegisterStage(SlotLabeler, name, func(Context) (kernel.Stage, error) {
				return colab.NewLabeler(nil, nil, nil), nil
			}); err != nil {
				t.Errorf("RegisterStage: %v", err)
			}
			if _, err := New(Linux, Context{}); err != nil {
				t.Errorf("New(linux): %v", err)
			}
			if _, err := New(name+".labeler+colab.selector", Context{}); err != nil {
				t.Errorf("New(composition): %v", err)
			}
			if err := Check("colab.labeler+wash.selector"); err != nil {
				t.Errorf("Check: %v", err)
			}
			Names()
			StageNames(SlotLabeler)
			if _, err := NewStage(SlotSelector, COLAB, Context{}); err != nil {
				t.Errorf("NewStage: %v", err)
			}
		}()
	}
	wg.Wait()
}
