package eas_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/policy"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
)

var plain = cpu.WorkProfile{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.3}

func mkApp(n int, work float64) *task.App {
	a := &task.App{ID: 0, Name: "app"}
	for i := 0; i < n; i++ {
		a.Threads = append(a.Threads, &task.Thread{App: a, Name: "t", Profile: plain,
			Program: task.Program{task.Compute{Work: work}}})
	}
	return a
}

// newEAS builds the registered "eas" policy.
func newEAS(t *testing.T) kernel.Scheduler {
	t.Helper()
	s, err := policy.New(policy.EAS, policy.Context{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runEAS(t *testing.T, cfg cpu.Config, w *task.Workload) *kernel.Result {
	t.Helper()
	m, err := kernel.NewMachine(cfg, newEAS(t), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Light load packs onto little cores: with two small threads and a 2B2S
// machine, the big cores should stay nearly unused.
func TestPacksLightLoadOnLittleCores(t *testing.T) {
	w := &task.Workload{Name: "light", Apps: []*task.App{mkApp(2, 20e6)}}
	res := runEAS(t, cpu.Config2B2S, w)
	var bigBusy, littleBusy sim.Time
	for _, c := range res.Cores {
		if c.Kind == cpu.Big {
			bigBusy += c.BusyTime
		} else {
			littleBusy += c.BusyTime
		}
	}
	if bigBusy > littleBusy/4 {
		t.Fatalf("EAS did not pack on littles: big %v vs little %v", bigBusy, littleBusy)
	}
}

// Saturating load spills to the big cluster: with 4 threads all cores work.
func TestSpillsToBigWhenSaturated(t *testing.T) {
	w := &task.Workload{Name: "full", Apps: []*task.App{mkApp(4, 40e6)}}
	res := runEAS(t, cpu.Config2B2S, w)
	for _, c := range res.Cores {
		if c.BusyTime < 10*sim.Millisecond {
			t.Fatalf("core %d unused under saturation: %v", c.ID, c.BusyTime)
		}
	}
}

// EAS must save energy relative to CFS on a light workload (that is its
// whole purpose).
func TestSavesEnergyVsCFSOnLightLoad(t *testing.T) {
	run := func(s kernel.Scheduler) float64 {
		w := &task.Workload{Name: "light", Apps: []*task.App{mkApp(2, 20e6)}}
		m, err := kernel.NewMachine(cpu.Config2B2S, s, w, kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalEnergyJ()
	}
	easJ := run(newEAS(t))
	cfsJ := run(cfs.New())
	if easJ >= cfsJ {
		t.Fatalf("EAS energy %v J not below CFS %v J on light load", easJ, cfsJ)
	}
}

func TestName(t *testing.T) {
	if newEAS(t).Name() != "eas" {
		t.Fatal("name")
	}
}
