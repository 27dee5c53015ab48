package colab_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	colab "colab"
)

// A custom benchmark authored against the public builder registers once
// and then resolves everywhere workloads are named: BuildBenchmark, the
// scenario grammar and an Experiment session.
func TestRegisterBenchmarkEndToEnd(t *testing.T) {
	err := registerOnce("apitest-spin", func() error {
		return colab.RegisterBenchmark(colab.Benchmark{
			Name: "apitest-spin", Suite: "example", DefaultThreads: 2,
			Gen: func(b *colab.AppBuilder, n int) {
				lock := b.NewID()
				for i := 0; i < n; i++ {
					b.Thread(fmt.Sprintf("w%d", i), colab.ComputeProfile(b.RNG()), colab.Program{
						colab.Compute{Work: 2e6},
						colab.Lock{ID: lock},
						colab.Compute{Work: 0.2e6},
						colab.Unlock{ID: lock},
						colab.Compute{Work: 2e6},
					})
				}
			},
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := colab.RegisterBenchmark(colab.Benchmark{Name: "apitest-spin", DefaultThreads: 2, Gen: func(b *colab.AppBuilder, n int) {}}); err == nil {
		t.Fatal("duplicate registration must error")
	}
	w, err := colab.BuildBenchmark("apitest-spin", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumThreads() != 3 {
		t.Fatalf("threads = %d", w.NumThreads())
	}
	// Same benchmark through the grammar, in a mix, in a session.
	res, err := colab.NewExperiment(
		colab.WithWorkloads("apitest-spin:2+radix:2"),
		colab.WithMachine(colab.Config2B2S),
		colab.WithPolicies("linux"),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 || res.Cells[0].Score.HANTT <= 0 {
		t.Fatalf("session over a registered benchmark failed: %+v", res.Cells)
	}
}

// The acceptance criterion: an open-system scenario with mid-run arrivals
// runs deterministically through colab.Experiment — byte-identical CSV for
// any worker count and across two sessions at the same seed.
func TestOpenScenarioDeterministicThroughExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates open mixes under two policies; not -short")
	}
	const spec = "radix:2+fft:2@arrive=uniform(0,40ms)+water_spatial:2@arrive=poisson(9ms)"
	csvAt := func(workers int) string {
		res, err := colab.NewExperiment(
			colab.WithWorkloads(spec),
			colab.WithMachine(colab.Config2B2S),
			colab.WithPolicies("linux", "colab"),
			colab.WithSeeds(3),
			colab.WithWorkers(workers),
		).Run(context.Background())
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
	// The workload column carries the canonical spec, quoted because the
	// uniform window contains a comma.
	canon := "\"radix:2+fft:2@arrive=uniform(0ns,40ms)+water_spatial:2@arrive=poisson(9ms)\""
	if !strings.Contains(ref, canon+",2B2S,linux,3,") {
		t.Fatalf("csv misses the scenario cell:\n%s", ref)
	}
	for _, workers := range []int{4, 7} {
		if got := csvAt(workers); got != ref {
			t.Errorf("workers=%d differs:\n%s\nvs\n%s", workers, got, ref)
		}
	}
	if got := csvAt(1); got != ref {
		t.Errorf("re-run at same seed differs:\n%s\nvs\n%s", got, ref)
	}
}

// Arrival admissions surface in the public trace stream, in order.
func TestOpenScenarioTracedAdmissions(t *testing.T) {
	w, err := colab.BuildWorkload("swaptions:2+swaptions:2@arrive=25ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	var admits []colab.Time
	_, err = colab.RunTraced(colab.Config2B2S, colab.NewLinux(), w, func(e colab.TraceEvent) {
		if e.Kind == "admit" {
			admits = append(admits, e.At)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(admits) != 2 || admits[0] != 0 || admits[1] != 25*colab.Millisecond {
		t.Fatalf("admissions = %v, want [0, 25ms]", admits)
	}
}

// Unknown names must surface the registered inventories, and the grammar
// surface must reject malformed specs with a useful error.
func TestScenarioAPIErrors(t *testing.T) {
	_, err := colab.BuildWorkload("Nope-3", 1)
	if err == nil || !strings.Contains(err.Error(), "scenarios:") || !strings.Contains(err.Error(), "Sync-2") {
		t.Fatalf("BuildWorkload unknown error must list scenarios, got %v", err)
	}
	_, err = colab.BuildBenchmark("nope", 4, 1)
	if err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("BuildBenchmark unknown error must list benchmarks, got %v", err)
	}
	if _, err := colab.ParseScenario("ferret:4@arrive=warp(9)"); err == nil {
		t.Fatal("bad arrival process must error")
	}
	if err := colab.RegisterScenario("bad name!", "ferret:2"); err == nil {
		t.Fatal("grammar-unsafe scenario name must error")
	}
	names := colab.ScenarioNames()
	if len(names) < 26 {
		t.Fatalf("scenario inventory too small: %d", len(names))
	}
	if len(colab.BenchmarkNames()) < 15 {
		t.Fatalf("benchmark inventory too small")
	}
}
