package colab_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/sched/cfs"
	"colab/internal/sched/colab"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// Under heavy overload, blame priority must not starve low-blame
// applications. Pipeline bottleneck threads (ferret's rank stage) run
// continuously while accumulating blame, so without a fairness bound they
// are always selected ahead of a plain compute app far behind on vruntime.
func TestFairnessWindowPreventsStarvation(t *testing.T) {
	build := func() *task.Workload {
		w := &task.Workload{Name: "starve"}
		rng := mathx.NewRNG(5)
		ferret, _ := workload.ByName("ferret")
		swap, _ := workload.ByName("swaptions")
		a, err := ferret.Instantiate(0, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		b, err := swap.Instantiate(1, 4, rng)
		if err != nil {
			t.Fatal(err)
		}
		w.Apps = []*task.App{a, b}
		return w
	}
	// 12 threads on 4 cores: overload.
	cfg := cpu.Config2B2S

	run := func(window sim.Time) sim.Time {
		p := oracle()
		p.sel.SetFairnessWindow(window)
		m, err := kernel.NewMachine(cfg, p.scheduler(), build(), kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		tt, ok := res.AppTurnaround("swaptions")
		if !ok {
			t.Fatal("swaptions missing")
		}
		return tt
	}

	tight := run(24 * sim.Millisecond)
	loose := run(100 * sim.Second) // effectively unbounded blame priority
	// With unbounded blame priority the low-blame app waits behind the
	// pipeline; the bounded window must finish it meaningfully earlier.
	if float64(tight) > 0.95*float64(loose) {
		t.Fatalf("fairness window had no effect: tight %v vs loose %v", tight, loose)
	}
}

// The fairness window must not defeat bottleneck acceleration in the
// normal (non-overloaded) regime: the motivating example still wins.
func TestFairnessWindowKeepsBottleneckWins(t *testing.T) {
	// Covered by TestMotivatingExampleBeatsCFS running with the default
	// window; here we just assert the default is the documented bound.
	if got, want := colab.NewSelector(0).FairnessWindow(), 4*cfs.TargetLatency; got != want {
		t.Fatalf("default fairness window %v, want %v", got, want)
	}
}
