package colab_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	colab "colab"
	"colab/internal/experiment"
	"colab/internal/workload"
)

// TestExperimentDeterministicAcrossWorkers is the session API's core
// guarantee: the same spec produces byte-identical output at any worker
// count.
func TestExperimentDeterministicAcrossWorkers(t *testing.T) {
	csvAt := func(workers int) string {
		exp := colab.NewExperiment(
			colab.WithWorkloads("Comp-1"),
			colab.WithMachine(colab.Config2B2S),
			colab.WithPolicies("linux", "colab"),
			colab.WithSeeds(1, 2),
			colab.WithWorkers(workers),
		)
		res, err := exp.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref := csvAt(1)
	if !strings.Contains(ref, "Comp-1,2B2S,linux,1,") {
		t.Fatalf("csv misses expected cell:\n%s", ref)
	}
	if got := len(strings.Split(strings.TrimSpace(ref), "\n")); got != 1+4 {
		t.Fatalf("csv has %d lines, want header + 4 cells:\n%s", got, ref)
	}
	for _, workers := range []int{4, 8} {
		if got := csvAt(workers); got != ref {
			t.Errorf("workers=%d output differs from workers=1:\n--- workers=1\n%s\n--- workers=%d\n%s",
				workers, ref, workers, got)
		}
	}
}

// The session API must agree bit-for-bit with the legacy
// internal/experiment.Runner scenario matrix.
func TestExperimentMatchesLegacyRunner(t *testing.T) {
	exp := colab.NewExperiment(
		colab.WithWorkloads("NSync-1"),
		colab.WithMachine(colab.Config2B4S),
		colab.WithPolicies("linux", "wash"),
	)
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r, err := experiment.NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := workload.CompositionByIndex("NSync-1")
	if !ok {
		t.Fatal("unknown composition NSync-1")
	}
	legacy, err := r.ScenarioMatrixContext(context.Background(), []workload.Spec{comp.Spec()},
		[]colab.Config{colab.Config2B4S}, []string{"linux", "wash"})
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy) != len(res.Cells) {
		t.Fatalf("legacy matrix has %d cells, session %d", len(legacy), len(res.Cells))
	}
	for i, cell := range res.Cells {
		want := legacy[i].Raw
		if legacy[i].Sched != cell.Run.Policy {
			t.Fatalf("cell %d: legacy policy %s, session %s", i, legacy[i].Sched, cell.Run.Policy)
		}
		if cell.Score.HANTT != want.HANTT || cell.Score.HSTP != want.HSTP {
			t.Errorf("%s: session %v vs legacy %v", cell.Run.Policy, cell.Score, want)
		}
	}
}

// Cancellation mid-batch must surface a wrapped ctx.Err() promptly.
func TestExperimentCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	events := 0
	exp := colab.NewExperiment(
		colab.WithWorkloads("Sync-1", "Sync-2", "Comp-1", "Comp-2"),
		colab.WithMachines(colab.EvaluatedConfigs()...),
		colab.WithPolicies("linux", "wash", "colab"),
		// The tracer fires on the first mix run's first scheduling event;
		// from there the context-checked kernel loop and the pool must
		// unwind without starting the remaining ~47 cells.
		colab.WithTracer(func(_ colab.ExperimentTrace) {
			if events == 0 {
				cancel()
			}
			events++
		}),
	)
	_, err := exp.Run(ctx)
	if events == 0 {
		t.Fatal("tracer never fired")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not surfaced as wrapped ctx.Err(): %v", err)
	}
}

func TestExperimentCancelledBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exp := colab.NewExperiment(colab.WithWorkloads("Comp-1"))
	if _, err := exp.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context must error with wrapped ctx.Err(), got %v", err)
	}
}

func TestExperimentValidation(t *testing.T) {
	if _, err := colab.NewExperiment().Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "WithWorkloads") {
		t.Errorf("missing workloads must name the option, got: %v", err)
	}
	if _, err := colab.NewExperiment(colab.WithWorkloads("Nope-1")).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "Nope-1") {
		t.Errorf("unknown workload must error, got: %v", err)
	}
	_, err := colab.NewExperiment(
		colab.WithWorkloads("Comp-1"),
		colab.WithPolicies("not-a-policy"),
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "not-a-policy") ||
		!strings.Contains(err.Error(), "linux") {
		t.Errorf("unknown policy error must list registered policies, got: %v", err)
	}
}

// A user policy registered through the public API must work as a session
// policy by name.
func TestExperimentWithRegisteredPolicy(t *testing.T) {
	const name = "test-wrapped-linux"
	if err := registerOnce(name, func() error {
		return colab.RegisterPolicy(name, func(colab.PolicyContext) (colab.Scheduler, error) {
			return colab.NewLinux(), nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if err := colab.RegisterPolicy(name, func(colab.PolicyContext) (colab.Scheduler, error) {
		return colab.NewLinux(), nil
	}); err == nil {
		t.Fatal("duplicate registration must error")
	}
	found := false
	for _, n := range colab.Policies() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("Policies() misses %q", name)
	}
	res, err := colab.NewExperiment(
		colab.WithWorkloads("Comp-1"),
		colab.WithPolicies("linux", name),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The wrapper builds plain CFS, so its cells must equal the linux ones.
	if n := len(res.Cells); n != 2 {
		t.Fatalf("cells = %d, want 2", n)
	}
	if res.Cells[0].Score != res.Cells[1].Score {
		t.Errorf("wrapped linux diverged from linux: %v vs %v", res.Cells[0].Score, res.Cells[1].Score)
	}
}

func TestExperimentNormalized(t *testing.T) {
	res, err := colab.NewExperiment(
		colab.WithWorkloads("Comp-1"),
		colab.WithPolicies("linux", "colab"),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	norm, err := res.Normalized("linux")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range norm.Cells {
		if c.Run.Policy == "linux" && (c.Score.HANTT != 1 || c.Score.HSTP != 1) {
			t.Errorf("linux not normalised to itself: %v", c.Score)
		}
	}
	if _, err := res.Normalized("gts"); err == nil {
		t.Error("normalising to an absent policy must error")
	}
}
