package gts_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/policy"
	"colab/internal/sim"
	"colab/internal/task"
)

var plain = cpu.WorkProfile{ILP: 0.6, BranchRate: 0.1, MemIntensity: 0.2}

// newGTS builds the registered "gts" policy.
func newGTS(t *testing.T) kernel.Scheduler {
	t.Helper()
	s, err := policy.New(policy.GTS, policy.Context{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runGTS(t *testing.T, cfg cpu.Config, w *task.Workload) *kernel.Result {
	t.Helper()
	m, err := kernel.NewMachine(cfg, newGTS(t), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// GTS steers by load average: a CPU-bound thread stays big-eligible, a
// mostly-sleeping thread must be down-migrated to little cores.
func TestLoadBasedSteering(t *testing.T) {
	a := &task.App{ID: 0, Name: "m"}
	busy := &task.Thread{App: a, Name: "busy", Profile: plain,
		Program: task.Program{task.Compute{Work: 200e6}}}
	var lazyProg task.Program
	for i := 0; i < 40; i++ {
		lazyProg = append(lazyProg, task.Compute{Work: 0.3e6}, task.Sleep{Duration: 4 * sim.Millisecond})
	}
	lazy := &task.Thread{App: a, Name: "lazy", Profile: plain, Program: lazyProg}
	a.Threads = []*task.Thread{busy, lazy}
	w := &task.Workload{Name: "m", Apps: []*task.App{a}}
	res := runGTS(t, cpu.Config2B2S, w)

	busyShare := float64(res.Threads[0].SumExecBig) / float64(res.Threads[0].SumExec)
	lazyShare := float64(res.Threads[1].SumExecBig) / float64(res.Threads[1].SumExec)
	if busyShare <= lazyShare {
		t.Fatalf("GTS did not bias busy thread to big cores: busy %.2f lazy %.2f", busyShare, lazyShare)
	}
	if lazyShare > 0.5 {
		t.Fatalf("mostly-sleeping thread kept %.0f%% big-core time", lazyShare*100)
	}
}

func TestName(t *testing.T) {
	if newGTS(t).Name() != "gts" {
		t.Fatal("name")
	}
}

// GTS must complete a multi-app workload without wedging (regression test
// for the idle-core requeue stall).
func TestMultiAppCompletion(t *testing.T) {
	mk := func(id int, n int, work float64) *task.App {
		a := &task.App{ID: id, Name: "app"}
		for i := 0; i < n; i++ {
			a.Threads = append(a.Threads, &task.Thread{App: a, Name: "t", Profile: plain,
				Program: task.Program{task.Compute{Work: work}, task.Sleep{Duration: sim.Millisecond}, task.Compute{Work: work}}})
		}
		return a
	}
	w := &task.Workload{Name: "multi", Apps: []*task.App{mk(0, 3, 20e6), mk(1, 3, 15e6)}}
	res := runGTS(t, cpu.Config2B4S, w)
	for _, app := range res.Apps {
		if app.Turnaround <= 0 {
			t.Fatalf("app did not finish")
		}
	}
}
