package kernel_test

// Allocation assertions for the pipeline's periodic labeling pass under
// the two multi-factor labelers the paper evaluates and under the GTS and
// EAS comparison labelers. Each case installs a labeler with the CFS
// allocator and selector, admits a mixed workload without starting the
// machine, and steps the engine: the labeling pass is then the only event,
// so the measured loop is the pipeline's pass with the labeler's Label.

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/perfmodel"
	"colab/internal/sched/cfs"
	"colab/internal/sched/colab"
	"colab/internal/sched/eas"
	"colab/internal/sched/gts"
	"colab/internal/sched/wash"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/topo"
)

// assertLabelerTicksDoNotAllocate admits 12 threads of mixed core
// sensitivity under lab on cfg and asserts that, after a few warm-up
// ticks, a labeling pass allocates nothing. Every tick first charges the
// threads fresh blocking blame so scores, labels and masks keep moving.
func assertLabelerTicksDoNotAllocate(t *testing.T, lab kernel.Labeler, cfg cpu.Config) {
	t.Helper()
	profiles := []cpu.WorkProfile{
		{ILP: 0.9, BranchRate: 0.12, MemIntensity: 0.05, FPRate: 0.6},
		{ILP: 0.1, BranchRate: 0.05, MemIntensity: 0.95},
		{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.3, FPRate: 0.2},
	}
	app := &task.App{ID: 0, Name: "tick"}
	for i := 0; i < 12; i++ {
		app.Threads = append(app.Threads, &task.Thread{
			App: app, Name: "tick", Profile: profiles[i%len(profiles)],
			Program: task.Program{task.Compute{Work: 1e12}},
		})
	}
	sched, err := kernel.NewPipeline("tick-probe", lab, cfs.NewAllocator(), cfs.NewSelector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(cfg, sched, &task.Workload{Name: "tick", Apps: []*task.App{app}}, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	sched.Start(m)
	for _, th := range app.Threads {
		sched.Admit(th)
	}
	eng := m.Engine()
	round := 0
	tick := func() {
		round++
		for i, th := range app.Threads {
			th.BlockBlame += sim.Time((i*round)%5) * sim.Microsecond
		}
		before := eng.Processed
		if !eng.Step() || eng.Processed != before+1 {
			t.Fatal("the pipeline stopped re-arming the labeling pass")
		}
	}
	for i := 0; i < 10; i++ {
		tick()
	}
	if avg := testing.AllocsPerRun(100, tick); avg != 0 {
		t.Fatalf("%s tick allocates: %.2f allocs/op, want 0", lab.Name(), avg)
	}
}

func TestCOLABLabelerTickDoesNotAllocate(t *testing.T) {
	tri := cpu.NewTieredConfig(cpu.TriGearTiers(), []int{2, 2, 2}, true)
	assertLabelerTicksDoNotAllocate(t, colab.NewLabeler(perfmodel.Oracle(), nil, nil), tri)
}

func TestWASHLabelerTickDoesNotAllocate(t *testing.T) {
	assertLabelerTicksDoNotAllocate(t, wash.NewLabeler(perfmodel.Oracle()), cpu.Config2B2S)
	// An active topology takes the tier-ranked arm.
	numa := cpu.NewConfig(4, 4, true).WithTopology(topo.Uniform(2, 1, 4, 200))
	assertLabelerTicksDoNotAllocate(t, wash.NewLabeler(perfmodel.Oracle()), numa)
}

func TestGTSLabelerTickDoesNotAllocate(t *testing.T) {
	tri := cpu.NewTieredConfig(cpu.TriGearTiers(), []int{2, 2, 2}, true)
	assertLabelerTicksDoNotAllocate(t, gts.NewLabeler(), tri)
}

func TestEASLabelerTickDoesNotAllocate(t *testing.T) {
	tri := cpu.NewTieredConfig(cpu.TriGearTiers(), []int{2, 2, 2}, true)
	assertLabelerTicksDoNotAllocate(t, eas.NewLabeler(), tri)
}
