package wash_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/sim"
	"colab/internal/task"
)

var (
	sensitive   = cpu.WorkProfile{ILP: 0.9, BranchRate: 0.12, MemIntensity: 0.05, FPRate: 0.6}
	insensitive = cpu.WorkProfile{ILP: 0.1, BranchRate: 0.05, MemIntensity: 0.95}
)

// newWASH builds the registered "wash" policy driven by speedup.
func newWASH(t *testing.T, speedup func(*task.Thread) float64) kernel.Scheduler {
	t.Helper()
	s, err := policy.New(policy.WASH, policy.Context{Speedup: speedup})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runWASH runs w under WASH driven by the ground-truth speedup oracle.
func runWASH(t *testing.T, cfg cpu.Config, w *task.Workload) *kernel.Result {
	t.Helper()
	m, err := kernel.NewMachine(cfg, newWASH(t, perfmodel.Oracle()), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mkThread(a *task.App, name string, prof cpu.WorkProfile, prog task.Program) {
	a.Threads = append(a.Threads, &task.Thread{App: a, Name: name, Profile: prof, Program: prog})
}

// WASH's affinity heuristic must steer core-sensitive threads to big cores
// and insensitive ones away from them.
func TestAffinitySteersBySpeedup(t *testing.T) {
	a := &task.App{ID: 0, Name: "m"}
	mkThread(a, "hot1", sensitive, task.Program{task.Compute{Work: 150e6}})
	mkThread(a, "hot2", sensitive, task.Program{task.Compute{Work: 150e6}})
	mkThread(a, "cold1", insensitive, task.Program{task.Compute{Work: 150e6}})
	mkThread(a, "cold2", insensitive, task.Program{task.Compute{Work: 150e6}})
	w := &task.Workload{Name: "m", Apps: []*task.App{a}}
	res := runWASH(t, cpu.Config2B2S, w)
	share := func(i int) float64 {
		return float64(res.Threads[i].SumExecBig) / float64(res.Threads[i].SumExec)
	}
	if (share(0)+share(1))/2 <= (share(2)+share(3))/2 {
		t.Fatalf("WASH did not favour sensitive threads on big cores: hot %.2f/%.2f cold %.2f/%.2f",
			share(0), share(1), share(2), share(3))
	}
}

// Bottleneck threads (high blocking blame) must be pushed to big cores even
// when their own speedup is low — WASH's characteristic over-crowding.
func TestBottleneckPushedToBig(t *testing.T) {
	a := &task.App{ID: 0, Name: "locky"}
	var holder task.Program
	for i := 0; i < 60; i++ {
		holder = append(holder, task.Lock{ID: 9}, task.Compute{Work: 1.5e6}, task.Unlock{ID: 9}, task.Compute{Work: 0.1e6})
	}
	var waiter task.Program
	for i := 0; i < 60; i++ {
		waiter = append(waiter, task.Compute{Work: 0.1e6}, task.Lock{ID: 9}, task.Compute{Work: 0.05e6}, task.Unlock{ID: 9}, task.Compute{Work: 0.3e6})
	}
	mkThread(a, "holder", insensitive, holder)
	mkThread(a, "w1", insensitive, waiter)
	mkThread(a, "w2", insensitive, waiter)
	mkThread(a, "w3", sensitive, task.Program{task.Compute{Work: 100e6}})
	w := &task.Workload{Name: "locky", Apps: []*task.App{a}}
	res := runWASH(t, cpu.Config2B2S, w)
	holderRes := res.Threads[0]
	if holderRes.BlockBlame == 0 {
		t.Fatalf("holder accrued no blame")
	}
	if holderRes.SumExecBig == 0 {
		t.Fatalf("bottleneck thread never ran on a big core under WASH")
	}
}

// Undifferentiated (homogeneous) thread populations must keep full affinity
// — WASH should not pin them and behave like Linux.
func TestHomogeneousThreadsStayUnpinned(t *testing.T) {
	a := &task.App{ID: 0, Name: "flat"}
	for i := 0; i < 4; i++ {
		mkThread(a, "t", sensitive, task.Program{task.Compute{Work: 60e6}})
	}
	w := &task.Workload{Name: "flat", Apps: []*task.App{a}}
	res := runWASH(t, cpu.Config2B2S, w)
	// All four equal threads on 4 cores: every core should be busy most of
	// the makespan (no artificial little-pinning stalls).
	for _, c := range res.Cores {
		if c.BusyTime < res.EndTime/2 {
			t.Fatalf("core %d mostly idle (%v of %v): affinity over-pinning",
				c.ID, c.BusyTime, res.EndTime)
		}
	}
}

func TestNameAndDefaults(t *testing.T) {
	p := newWASH(t, nil)
	if p.Name() != "wash" {
		t.Fatalf("name = %q", p.Name())
	}
}

// Symmetric machines must not wedge WASH (little mask falls back to big).
func TestSymmetricMachine(t *testing.T) {
	a := &task.App{ID: 0, Name: "sym"}
	mkThread(a, "t0", sensitive, task.Program{task.Compute{Work: 20e6}})
	mkThread(a, "t1", insensitive, task.Program{task.Compute{Work: 20e6}})
	w := &task.Workload{Name: "sym", Apps: []*task.App{a}}
	res := runWASH(t, cpu.NewSymmetric(cpu.Big, 2), w)
	if res.EndTime <= 0 || res.EndTime > 40*sim.Millisecond {
		t.Fatalf("symmetric run misbehaved: %v", res.EndTime)
	}
}
