package cfs_test

import (
	"reflect"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
)

var plain = cpu.WorkProfile{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.3}

func app(id int, progs []task.Program, prof cpu.WorkProfile) *task.App {
	a := &task.App{ID: id, Name: "app"}
	for i, p := range progs {
		a.Threads = append(a.Threads, &task.Thread{
			App: a, Name: "t" + string(rune('0'+i)), Profile: prof, Program: p,
		})
	}
	return a
}

func cpuBound(work float64) task.Program { return task.Program{task.Compute{Work: work}} }

func run(t *testing.T, cfg cpu.Config, w *task.Workload) *kernel.Result {
	t.Helper()
	m, err := kernel.NewMachine(cfg, cfs.New(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Two equal CPU-bound threads sharing one core must get nearly equal CPU
// time (the fairness invariant CFS exists for).
func TestFairnessOnSharedCore(t *testing.T) {
	a := app(0, []task.Program{cpuBound(50e6), cpuBound(50e6)}, plain)
	w := &task.Workload{Name: "fair", Apps: []*task.App{a}}
	res := run(t, cpu.NewSymmetric(cpu.Little, 1), w)
	e0, e1 := res.Threads[0].SumExec, res.Threads[1].SumExec
	// Both finish 50ms of work; completion order may skew the tail, but at
	// the first thread's completion both should be near 50% of the core.
	ratio := float64(e0) / float64(e1)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair split: %v vs %v", e0, e1)
	}
}

// Threads are placed on the least-loaded cores: four independent threads on
// four cores must all run in parallel (makespan ~ single-thread runtime).
func TestLeastLoadedPlacementSpreads(t *testing.T) {
	a := app(0, []task.Program{cpuBound(30e6), cpuBound(30e6), cpuBound(30e6), cpuBound(30e6)}, plain)
	w := &task.Workload{Name: "spread", Apps: []*task.App{a}}
	res := run(t, cpu.NewSymmetric(cpu.Little, 4), w)
	if res.EndTime > 32*sim.Millisecond {
		t.Fatalf("threads did not spread: end %v", res.EndTime)
	}
	for _, c := range res.Cores {
		if c.Dispatches == 0 {
			t.Fatalf("core %d never dispatched", c.ID)
		}
	}
}

// Affinity masks restrict placement and stealing.
func TestAffinityRespected(t *testing.T) {
	a := app(0, []task.Program{cpuBound(20e6), cpuBound(20e6)}, plain)
	a.Threads[0].Affinity = task.MaskOf([]int{1})
	a.Threads[1].Affinity = task.MaskOf([]int{1})
	w := &task.Workload{Name: "aff", Apps: []*task.App{a}}
	res := run(t, cpu.NewSymmetric(cpu.Little, 2), w)
	if res.Cores[0].BusyTime > sim.Millisecond {
		t.Fatalf("core 0 ran pinned-away threads: busy %v", res.Cores[0].BusyTime)
	}
	if res.Cores[1].BusyTime < 40*sim.Millisecond {
		t.Fatalf("core 1 did not run both threads: busy %v", res.Cores[1].BusyTime)
	}
}

// The per-thread slice shrinks as the run queue grows (target latency is
// divided among runnable threads).
func TestSliceShrinksWithLoad(t *testing.T) {
	// 6 threads on one core: slice should be 1ms (6ms/6), so within any 6ms
	// window every thread runs. Rough proxy: switches must be plentiful.
	var progs []task.Program
	for i := 0; i < 6; i++ {
		progs = append(progs, cpuBound(12e6))
	}
	a := app(0, progs, plain)
	w := &task.Workload{Name: "slices", Apps: []*task.App{a}}
	res := run(t, cpu.NewSymmetric(cpu.Little, 1), w)
	if res.TotalSwitches < 30 {
		t.Fatalf("too few context switches for 6-way sharing: %d", res.TotalSwitches)
	}
}

// A long-sleeping thread woken up must preempt a long-running thread (its
// vruntime is far behind).
func TestWakeupPreemption(t *testing.T) {
	sleeper := task.Program{task.Sleep{Duration: 20 * sim.Millisecond}, task.Compute{Work: 5e6}}
	hog := cpuBound(100e6)
	a := app(0, []task.Program{sleeper, hog}, plain)
	w := &task.Workload{Name: "wake", Apps: []*task.App{a}}
	res := run(t, cpu.NewSymmetric(cpu.Little, 1), w)
	if res.TotalPreemptions == 0 {
		t.Fatalf("woken sleeper never preempted the hog")
	}
	// The sleeper must finish well before the hog.
	if res.Threads[0].SumExec+res.Threads[0].BlockedTime+res.Threads[0].ReadyTime >
		res.Threads[1].SumExec {
		t.Logf("sleeper total %v, hog exec %v (informational)",
			res.Threads[0].SumExec+res.Threads[0].BlockedTime, res.Threads[1].SumExec)
	}
}

// Idle cores steal work: one core overloaded, one empty.
func TestIdleSteal(t *testing.T) {
	a := app(0, []task.Program{cpuBound(40e6), cpuBound(40e6)}, plain)
	// Pin both to core 0 initially via affinity then widen? Instead: both
	// enqueue at t=0; least-loaded placement spreads them. To force a steal
	// we use three threads on two cores: the third must be stolen when a
	// core drains.
	b := app(0, []task.Program{cpuBound(40e6), cpuBound(40e6), cpuBound(40e6)}, plain)
	w := &task.Workload{Name: "steal", Apps: []*task.App{b}}
	_ = a
	res := run(t, cpu.NewSymmetric(cpu.Little, 2), w)
	// Perfect schedule: 60ms (120ms of work over 2 cores). Without stealing
	// one core would idle after 40ms and the other run 80ms.
	if res.EndTime > 70*sim.Millisecond {
		t.Fatalf("idle steal missing: end %v", res.EndTime)
	}
}

func TestNameAndDefaults(t *testing.T) {
	p := cfs.New()
	if p.Name() != "linux" {
		t.Fatalf("name = %q", p.Name())
	}
}

// probeSelector is the CFS selector that runs probe once the pipeline has
// started, before the first thread is admitted.
type probeSelector struct {
	*cfs.SelectorStage
	probe func(pc *kernel.PipelineContext)
}

func (s probeSelector) Start(pc *kernel.PipelineContext) {
	s.SelectorStage.Start(pc)
	s.probe(pc)
}

// Least-loaded placement against queue loads staged by hand: the
// unloaded-core walk, the full-scan fallback when the mask excludes every
// unloaded core, the lowest-index tie-break on both paths, and the MaskAll
// fallback for a mask that matches no core.
func TestLeastLoadedPlacement(t *testing.T) {
	cases := []struct {
		name  string
		loads []int
		mask  []int // nil: every core
		want  int
	}{
		{"first unloaded core", []int{1, 0, 1, 0, 0, 1}, nil, 1},
		{"first allowed unloaded core", []int{1, 0, 1, 0, 0, 1}, []int{2, 3, 5}, 3},
		{"mask excludes every unloaded core", []int{2, 3, 1, 2, 0, 0}, []int{0, 1, 2, 3}, 2},
		{"equal loads resolve to the lowest index", []int{3, 2, 2, 0, 0, 0}, []int{0, 1, 2}, 1},
		{"mask matching no core falls back to every core", []int{1, 1, 0, 1, 0, 0}, []int{9}, 2},
	}
	alloc := cfs.NewAllocator()
	a := app(0, []task.Program{cpuBound(1e6)}, plain)
	probe := func(pc *kernel.PipelineContext) {
		q := pc.Queues()
		for _, c := range cases {
			// Staged threads get distinct IDs past the workload's, as
			// NewMachine would number them: RunQueues indexes by ID.
			id := len(a.Threads)
			var staged []*task.Thread
			for core, n := range c.loads {
				for i := 0; i < n; i++ {
					th := &task.Thread{ID: id, Affinity: task.MaskAll()}
					id++
					q.Push(core, th)
					staged = append(staged, th)
				}
			}
			var unloaded, want []int
			for i := pc.NextUnloaded(0); i >= 0; i = pc.NextUnloaded(i + 1) {
				unloaded = append(unloaded, i)
			}
			for core, n := range c.loads {
				if n == 0 {
					want = append(want, core)
				}
			}
			if !reflect.DeepEqual(unloaded, want) {
				t.Errorf("%s: NextUnloaded walks %v, want %v", c.name, unloaded, want)
			}
			th := &task.Thread{Affinity: task.MaskAll()}
			if c.mask != nil {
				th.Affinity = task.MaskOf(c.mask)
			}
			if got := alloc.LeastLoadedAllowed(th); got != c.want || !th.AllowedOn(got) {
				t.Errorf("%s: placed on core %d (allowed %v), want %d", c.name, got, th.AllowedOn(got), c.want)
			}
			for _, s := range staged {
				q.Remove(s)
			}
		}
	}
	sched, err := kernel.NewPipeline("probe", nil, alloc, probeSelector{cfs.NewSelector(), probe}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 6), sched, &task.Workload{Name: "probe", Apps: []*task.App{a}}, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
