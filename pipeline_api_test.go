package colab_test

import (
	"context"
	"strings"
	"testing"

	colab "colab"
)

// The zero Pipeline is plain CFS: it must build, run a workload to
// completion and carry a derived name.
func TestZeroPipelineIsCFS(t *testing.T) {
	s, err := colab.Pipeline{}.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Name(); got != "linux.allocator+linux.selector" {
		t.Fatalf("derived name = %q", got)
	}
	w, err := colab.BuildWorkload("Comp-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := colab.Run(colab.Config2B2S, s, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		if a.Turnaround <= 0 {
			t.Fatalf("app %s unfinished", a.Name)
		}
	}
}

// Registry-built stages slot into a hand-assembled Pipeline: COLAB's
// labeler over the default CFS mechanics.
func TestPipelineFromRegistryStages(t *testing.T) {
	st, err := colab.NewStage(colab.SlotLabeler, "colab", colab.PolicyContext{})
	if err != nil {
		t.Fatal(err)
	}
	lab, ok := st.(colab.Labeler)
	if !ok {
		t.Fatalf("colab.labeler stage does not implement Labeler: %T", st)
	}
	s, err := colab.Pipeline{Name: "colab-over-cfs", Labeler: lab}.Scheduler()
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "colab-over-cfs" {
		t.Fatalf("name = %q", s.Name())
	}
	w, err := colab.BuildWorkload("Comp-1", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := colab.Run(colab.Config2B2S, s, w); err != nil {
		t.Fatal(err)
	}
}

// countingLabeler is a minimal user-defined stage: it counts the labeling
// passes the pipeline drives and pins nothing.
type countingLabeler struct {
	passes int
}

func (l *countingLabeler) Name() string                    { return "counting.labeler" }
func (l *countingLabeler) Start(pc *colab.PipelineContext) {}
func (l *countingLabeler) Label(threads []*colab.Thread)   { l.passes++ }

// A user stage registered with RegisterStage becomes addressable through
// the composition grammar everywhere a policy name is accepted.
func TestRegisterStageGrammarRoundtrip(t *testing.T) {
	var last *countingLabeler
	if err := colab.RegisterStage(colab.SlotLabeler, "counting", func(colab.PolicyContext) (colab.PipelineStage, error) {
		last = &countingLabeler{}
		return last, nil
	}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range colab.StageNames(colab.SlotLabeler) {
		if n == "counting" {
			found = true
		}
	}
	if !found {
		t.Fatalf("counting missing from StageNames: %v", colab.StageNames(colab.SlotLabeler))
	}
	s, err := colab.NewPolicy("counting.labeler+colab.selector", colab.PolicyContext{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := colab.BuildWorkload("Comp-1", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := colab.Run(colab.Config2B2S, s, w); err != nil {
		t.Fatal(err)
	}
	if last == nil || last.passes == 0 {
		t.Fatalf("user labeler never ticked (stage=%v)", last)
	}

	// Registration validation: grammar metacharacters and collisions.
	if err := colab.RegisterStage(colab.SlotLabeler, "counting", nil); err == nil {
		t.Error("nil factory must error")
	}
	if err := colab.RegisterStage(colab.SlotLabeler, "a.b", func(colab.PolicyContext) (colab.PipelineStage, error) {
		return &countingLabeler{}, nil
	}); err == nil {
		t.Error("dotted stage name must error")
	}
	if err := colab.RegisterStage("nosuchslot", "x", func(colab.PolicyContext) (colab.PipelineStage, error) {
		return &countingLabeler{}, nil
	}); err == nil {
		t.Error("unknown slot must error")
	}
}

// A cross-policy hybrid runs through the Experiment session by composition
// name, alongside its parents.
func TestExperimentAcceptsCompositionNames(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates full mixes; not -short")
	}
	const hybrid = "colab.labeler+wash.selector"
	res, err := colab.NewExperiment(
		colab.WithWorkloads("Comp-1"),
		colab.WithMachine(colab.Config2B2S),
		colab.WithPolicies("colab", hybrid),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	seen := map[string]bool{}
	for _, c := range res.Cells {
		seen[c.Run.Policy] = true
		if c.Score.HANTT <= 0 || c.Score.HSTP <= 0 {
			t.Fatalf("%s: degenerate score %+v", c.Run.Policy, c.Score)
		}
	}
	if !seen[hybrid] {
		t.Fatalf("hybrid cell missing: %v", seen)
	}
}

// Unknown stages inside compositions error with the slot's registered
// stage names, mirroring the unknown-policy behaviour.
func TestCompositionUnknownStageError(t *testing.T) {
	_, err := colab.NewPolicy("bogus.labeler+colab.selector", colab.PolicyContext{})
	if err == nil {
		t.Fatal("unknown labeler must error")
	}
	for _, wantSub := range []string{"bogus", "colab", "wash", "gts", "eas"} {
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("error misses %q: %v", wantSub, err)
		}
	}
}

// Every built-in, the COLAB ablations included, exposes the composition it
// builds.
func TestCanonicalCompositions(t *testing.T) {
	for _, name := range []string{"linux", "wash", "gts", "eas", "colab", "colab-dvfs",
		"colab-noscale", "colab-local", "colab-flat", "colab-nopull", "colab-oracle"} {
		comp, ok := colab.CanonicalComposition(name)
		if !ok {
			t.Errorf("no canonical composition for %s", name)
			continue
		}
		if _, err := colab.NewPolicy(comp, colab.PolicyContext{}); err != nil {
			t.Errorf("canonical composition %q does not build: %v", comp, err)
		}
	}
	if _, ok := colab.CanonicalComposition("colab.labeler"); ok {
		t.Error("a composition name must not claim a canonical composition")
	}
}
