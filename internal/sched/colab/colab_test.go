package colab_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/perfmodel"
	"colab/internal/sched/cfs"
	"colab/internal/sched/colab"
	"colab/internal/sim"
	"colab/internal/task"
)

var (
	sensitive   = cpu.WorkProfile{ILP: 0.9, BranchRate: 0.12, MemIntensity: 0.05, FPRate: 0.6} // ~2.7x
	insensitive = cpu.WorkProfile{ILP: 0.1, BranchRate: 0.05, MemIntensity: 0.95}              // ~1.1x
)

// pipeline is one COLAB composition assembled from the stage
// constructors, with handles on the stages the behaviour tests poke at.
type pipeline struct {
	lab   *colab.LabelerStage
	alloc *colab.AllocatorStage
	sel   *colab.SelectorStage
	gov   *colab.GovernorStage // nil: fixed frequency
}

// oracle returns the "colab" composition driven by the ground-truth
// speedup predictor.
func oracle() *pipeline {
	return &pipeline{
		lab:   colab.NewLabeler(perfmodel.Oracle(), nil, nil),
		alloc: colab.NewAllocator(false),
		sel:   colab.NewSelector(0),
	}
}

// scheduler composes the stages into a fresh pipeline.
func (p *pipeline) scheduler() kernel.Scheduler {
	var gov kernel.Governor
	if p.gov != nil {
		gov = p.gov
	}
	s, err := kernel.NewPipeline("colab", p.lab, p.alloc, p.sel, gov)
	if err != nil {
		panic(err)
	}
	return s
}

func newApp(id int, name string) *task.App { return &task.App{ID: id, Name: name} }

func addThread(a *task.App, name string, prof cpu.WorkProfile, prog task.Program) *task.Thread {
	t := &task.Thread{App: a, Name: name, Profile: prof, Program: prog}
	a.Threads = append(a.Threads, t)
	return t
}

func runColab(t *testing.T, cfg cpu.Config, w *task.Workload, p *pipeline) *kernel.Result {
	t.Helper()
	m, err := kernel.NewMachine(cfg, p.scheduler(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Core-sensitive threads must receive a larger big-core share than
// insensitive ones (the hierarchical allocator + labeler at work).
func TestAllocatorFavorsSensitiveThreadsOnBig(t *testing.T) {
	a := newApp(0, "mix")
	addThread(a, "hot", sensitive, task.Program{task.Compute{Work: 120e6}})
	addThread(a, "cold", insensitive, task.Program{task.Compute{Work: 120e6}})
	addThread(a, "hot2", sensitive, task.Program{task.Compute{Work: 120e6}})
	addThread(a, "cold2", insensitive, task.Program{task.Compute{Work: 120e6}})
	w := &task.Workload{Name: "mix", Apps: []*task.App{a}}
	res := runColab(t, cpu.Config2B2S, w, oracle())
	share := func(i int) float64 {
		if res.Threads[i].SumExec == 0 {
			return 0
		}
		return float64(res.Threads[i].SumExecBig) / float64(res.Threads[i].SumExec)
	}
	hot := (share(0) + share(2)) / 2
	cold := (share(1) + share(3)) / 2
	if hot <= cold+0.15 {
		t.Fatalf("big-core share: sensitive %.2f vs insensitive %.2f", hot, cold)
	}
}

// An idle big core must pull a running thread off a little core rather than
// idle (Alg. 1's final selector clause).
func TestBigCorePullsRunningLittleThread(t *testing.T) {
	a := newApp(0, "solo")
	addThread(a, "only", sensitive, task.Program{task.Compute{Work: 50e6}})
	w := &task.Workload{Name: "solo", Apps: []*task.App{a}}
	// Little-first ordering: round-robin allocation may land the only
	// thread on a little core; the idle big core must then pull it.
	cfg := cpu.NewConfig(1, 1, false)
	res := runColab(t, cfg, w, oracle())
	th := res.Threads[0]
	if th.SumExecBig < th.SumExec*9/10 {
		t.Fatalf("big core did not pull: big %v of %v", th.SumExecBig, th.SumExec)
	}
	// And with pulling disabled the thread may stay on the little core.
	w2 := &task.Workload{Name: "solo2", Apps: []*task.App{func() *task.App {
		a := newApp(0, "solo")
		addThread(a, "only", sensitive, task.Program{task.Compute{Work: 50e6}})
		return a
	}()}}
	p := oracle()
	p.sel = colab.NewSelector(colab.Steal | colab.Pull)
	res2 := runColab(t, cfg, w2, p)
	if res2.EndTime <= res.EndTime {
		t.Fatalf("disabling pull+steal should not be faster: %v vs %v", res2.EndTime, res.EndTime)
	}
}

// The biased-global selector must prefer the most blocking thread: a lock
// holder that makes others wait gets picked ahead of plain threads.
func TestSelectorPrioritizesBottleneck(t *testing.T) {
	// App with a heavily contended lock: the holder accrues blame.
	a := newApp(0, "locky")
	var bottleneck task.Program
	for i := 0; i < 40; i++ {
		bottleneck = append(bottleneck, task.Lock{ID: 1}, task.Compute{Work: 1.5e6}, task.Unlock{ID: 1}, task.Compute{Work: 0.2e6})
	}
	var waiter task.Program
	for i := 0; i < 40; i++ {
		waiter = append(waiter, task.Lock{ID: 1}, task.Compute{Work: 0.1e6}, task.Unlock{ID: 1}, task.Compute{Work: 0.5e6})
	}
	addThread(a, "holder", insensitive, bottleneck)
	addThread(a, "waiter1", insensitive, waiter)
	addThread(a, "waiter2", insensitive, waiter)
	// Competing CPU-bound filler app.
	b := newApp(1, "filler")
	for i := 0; i < 3; i++ {
		addThread(b, "f", insensitive, task.Program{task.Compute{Work: 80e6}})
	}
	w := &task.Workload{Name: "bn", Apps: []*task.App{a, b}}
	res := runColab(t, cpu.Config2B2S, w, oracle())
	holder := res.Threads[0]
	if holder.BlockBlame == 0 {
		t.Fatalf("holder accrued no blame")
	}
	// The bottleneck holder must not languish in queues: its ready-wait
	// should be small relative to the filler threads'.
	fillerReady := res.Threads[3].ReadyTime + res.Threads[4].ReadyTime + res.Threads[5].ReadyTime
	if holder.ReadyTime*3 > fillerReady*2 {
		t.Fatalf("bottleneck waited too long: holder %v vs fillers %v", holder.ReadyTime, fillerReady/3)
	}
}

// Figure 1's motivating example: alpha(2 threads, a1 high-speedup blocks
// a2), beta(2 threads, b1 low-speedup blocks b2), gamma (single-thread high
// speedup) on one big + one little core. The coordinated scheduler must
// beat CFS end-to-end.
func TestMotivatingExampleBeatsCFS(t *testing.T) {
	build := func() *task.Workload {
		blocker := func(work float64) task.Program {
			var p task.Program
			for i := 0; i < 40; i++ {
				p = append(p, task.Lock{ID: 1}, task.Compute{Work: work}, task.Unlock{ID: 1}, task.Compute{Work: 0.2e6})
			}
			return p
		}
		blocked := func() task.Program {
			var p task.Program
			for i := 0; i < 40; i++ {
				p = append(p, task.Compute{Work: 0.2e6}, task.Lock{ID: 1}, task.Compute{Work: 0.1e6}, task.Unlock{ID: 1}, task.Compute{Work: 1e6})
			}
			return p
		}
		alpha := newApp(0, "alpha")
		addThread(alpha, "a1", sensitive, blocker(3e6))
		addThread(alpha, "a2", insensitive, blocked())
		beta := newApp(1, "beta")
		addThread(beta, "b1", insensitive, blocker(3e6))
		addThread(beta, "b2", insensitive, blocked())
		gamma := newApp(2, "gamma")
		addThread(gamma, "g", sensitive, task.Program{task.Compute{Work: 240e6}})
		return &task.Workload{Name: "fig1", Apps: []*task.App{alpha, beta, gamma}}
	}
	cfg := cpu.NewConfig(1, 1, true)

	mc, err := kernel.NewMachine(cfg, oracle().scheduler(), build(), kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	resColab, err := mc.Run()
	if err != nil {
		t.Fatal(err)
	}
	ml, err := kernel.NewMachine(cfg, cfs.New(), build(), kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	resCFS, err := ml.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resColab.Makespan() >= resCFS.Makespan() {
		t.Fatalf("COLAB %v not faster than CFS %v on the motivating example",
			resColab.Makespan(), resCFS.Makespan())
	}
}

// Scale-slice: with contention on big cores, COLAB must rotate threads
// faster than the no-scale ablation (more switches, tighter fairness).
func TestScaleSliceIncreasesRotation(t *testing.T) {
	build := func() *task.Workload {
		a := newApp(0, "spin")
		for i := 0; i < 4; i++ {
			addThread(a, "t", sensitive, task.Program{task.Compute{Work: 60e6}})
		}
		return &task.Workload{Name: "spin", Apps: []*task.App{a}}
	}
	cfg := cpu.NewConfig(2, 0, true) // big cores only: all slices scaled
	on := runColab(t, cfg, build(), oracle())
	p := oracle()
	p.sel = colab.NewSelector(colab.ScaleSlice)
	off := runColab(t, cfg, build(), p)
	if on.TotalSwitches <= off.TotalSwitches {
		t.Fatalf("scale-slice did not shorten slices: %d vs %d switches",
			on.TotalSwitches, off.TotalSwitches)
	}
}

func TestNames(t *testing.T) {
	for _, c := range []struct {
		stage kernel.Stage
		want  string
	}{
		{colab.NewLabeler(nil, nil, nil), "colab.labeler"},
		{colab.NewAllocator(true), "colab.allocator"},
		{colab.NewSelector(colab.Pull), "colab.selector"},
		{colab.NewGovernor(), "colab.governor"},
	} {
		if got := c.stage.Name(); got != c.want {
			t.Errorf("stage name %q, want %q", got, c.want)
		}
	}
	for l, want := range map[colab.Label]string{
		colab.LabelFree: "free", colab.LabelBig: "big", colab.LabelLittle: "little",
	} {
		if l.String() != want {
			t.Errorf("label %d = %q", int(l), l.String())
		}
	}
}

// The labeler must classify a clearly bimodal speedup population.
func TestLabelsSplitBimodalPopulation(t *testing.T) {
	a := newApp(0, "bimodal")
	for i := 0; i < 3; i++ {
		addThread(a, "hot", sensitive, task.Program{task.Compute{Work: 200e6}})
		addThread(a, "cold", insensitive, task.Program{task.Compute{Work: 200e6}})
	}
	w := &task.Workload{Name: "bimodal", Apps: []*task.App{a}}
	p := oracle()
	m, err := kernel.NewMachine(cpu.Config2B2S, p.scheduler(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot labels after a few labeling intervals.
	var snapshot map[*task.Thread]colab.Label
	m.Engine().At(35*sim.Millisecond, func() { snapshot = p.lab.Labels() })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if snapshot == nil {
		t.Fatal("snapshot never taken")
	}
	bigHot, littleCold := 0, 0
	for th, l := range snapshot {
		if th.Profile.TrueSpeedup() > 2 && l == colab.LabelBig {
			bigHot++
		}
		if th.Profile.TrueSpeedup() < 1.5 && l == colab.LabelLittle {
			littleCold++
		}
	}
	if bigHot == 0 {
		t.Errorf("no sensitive thread labeled big: %v", snapshot)
	}
	if littleCold == 0 {
		t.Errorf("no insensitive thread labeled little")
	}
}
