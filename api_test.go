package colab_test

import (
	"reflect"
	"strings"
	"testing"

	colab "colab"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	model, err := colab.TrainSpeedupModel()
	if err != nil {
		t.Fatal(err)
	}
	w, err := colab.BuildWorkload("Comp-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := colab.Run(colab.Config2B2S, colab.NewCOLAB(model), w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	for _, a := range res.Apps {
		if a.Turnaround <= 0 {
			t.Fatalf("app %s unfinished", a.Name)
		}
	}
	var sb strings.Builder
	res.WriteSummary(&sb)
	if !strings.Contains(sb.String(), "colab") {
		t.Fatalf("summary missing scheduler name:\n%s", sb.String())
	}
}

func TestPublicAPIBaselineScoring(t *testing.T) {
	// Run each app alone on all-big, then the mix, and score it.
	mk := func() *colab.Workload {
		w, err := colab.BuildWorkload("NSync-1", 4)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	bases := make([]colab.Time, 2)
	for i := 0; i < 2; i++ {
		w := mk()
		alone := &colab.Workload{Name: "alone", Apps: []*colab.App{w.Apps[i]}}
		res, err := colab.Run(colab.NewConfig(4, 0, true), colab.NewLinux(), alone)
		if err != nil {
			t.Fatal(err)
		}
		bases[i] = res.Apps[0].Turnaround
	}
	res, err := colab.Run(colab.Config2B2S, colab.NewLinux(), mk())
	if err != nil {
		t.Fatal(err)
	}
	score, err := colab.Score(res, bases)
	if err != nil {
		t.Fatal(err)
	}
	if score.HANTT < 1 {
		t.Fatalf("mix cannot beat big-only-alone: H_ANTT %v", score.HANTT)
	}
	if _, err := colab.Score(res, bases[:1]); err == nil {
		t.Fatalf("baseline length mismatch must error")
	}
}

func TestPublicAPIErrorsAndConstructors(t *testing.T) {
	if _, err := colab.BuildWorkload("Nope-3", 1); err == nil {
		t.Fatalf("unknown workload must error")
	}
	if _, err := colab.BuildBenchmark("nope", 4, 1); err == nil {
		t.Fatalf("unknown benchmark must error")
	}
	if got := len(colab.Benchmarks()); got != 15 {
		t.Fatalf("benchmarks = %d", got)
	}
	if got := len(colab.Compositions()); got != 26 {
		t.Fatalf("compositions = %d", got)
	}
	if got := len(colab.EvaluatedConfigs()); got != 4 {
		t.Fatalf("configs = %d", got)
	}
	cfg := colab.NewConfig(3, 1, false)
	if len(cfg.TierIndices(int(colab.Big))) != 3 || len(cfg.TierIndices(int(colab.Little))) != 1 {
		t.Fatalf("NewConfig shape wrong")
	}
	for _, s := range []colab.Scheduler{
		colab.NewLinux(), colab.NewWASH(nil), colab.NewCOLAB(nil), colab.NewGTS(),
		colab.NewEAS(),
	} {
		if s.Name() == "" {
			t.Fatalf("scheduler without a name")
		}
	}
}

// All four policies must agree on total retired work for the same workload
// (conservation: scheduling changes when, not how much).
func TestWorkConservationAcrossSchedulers(t *testing.T) {
	model, err := colab.TrainSpeedupModel()
	if err != nil {
		t.Fatal(err)
	}
	want := -1.0
	for _, mk := range []func() colab.Scheduler{
		colab.NewLinux,
		func() colab.Scheduler { return colab.NewWASH(model) },
		func() colab.Scheduler { return colab.NewCOLAB(model) },
		colab.NewGTS,
	} {
		w, err := colab.BuildWorkload("Sync-1", 6)
		if err != nil {
			t.Fatal(err)
		}
		res, err := colab.Run(colab.Config2B4S, mk(), w)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, th := range res.Threads {
			total += th.WorkDone
		}
		if want < 0 {
			want = total
		} else if diff := total/want - 1; diff > 0.0001 || diff < -0.0001 {
			t.Fatalf("retired work differs across schedulers: %v vs %v", total, want)
		}
	}
}

// Thread counters after a public Run follow the scheduler: a blind
// built-in synthesises none, a predictor-reading one and any wrapper keep
// them, and the blind run's Result is the wrapped run's (docs/API.md).
func TestRunCountersFollowScheduler(t *testing.T) {
	run := func(s colab.Scheduler) (*colab.Result, bool) {
		t.Helper()
		w, err := colab.BuildWorkload("Sync-2", 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := colab.Run(colab.Config2B2S, s, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range w.Threads() {
			for _, v := range th.TotalCounters {
				if v != 0 {
					return res, true
				}
			}
		}
		return res, false
	}
	blind, counted := run(colab.NewLinux())
	if counted {
		t.Error("linux run synthesised counters")
	}
	wrapped, counted := run(struct{ colab.Scheduler }{colab.NewLinux()})
	if !counted {
		t.Error("wrapped linux run has no counters")
	}
	if !reflect.DeepEqual(blind, wrapped) {
		t.Error("linux Result differs from the wrapped run's")
	}
	if _, counted := run(colab.NewWASH(nil)); !counted {
		t.Error("wash run has no counters")
	}
}
