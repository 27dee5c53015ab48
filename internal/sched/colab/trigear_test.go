package colab_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/colab"
	"colab/internal/sim"
	"colab/internal/task"
)

var middling = cpu.WorkProfile{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.35, FPRate: 0.3} // ~1.9x

// On a tri-gear machine the tier-ranked labeler must steer high-speedup
// threads to the big cluster, low-speedup ones to the little cluster, and
// give middling non-critical threads a middle-tier target.
func TestTriGearLabelerTargetsTiers(t *testing.T) {
	a := newApp(0, "mix")
	var hot, mid, cold *task.Thread
	for i := 0; i < 2; i++ {
		hot = addThread(a, "hot", sensitive, task.Program{task.Compute{Work: 150e6}})
		mid = addThread(a, "mid", middling, task.Program{task.Compute{Work: 150e6}})
		cold = addThread(a, "cold", insensitive, task.Program{task.Compute{Work: 150e6}})
	}
	w := &task.Workload{Name: "mix", Apps: []*task.App{a}}
	p := oracle()
	m, err := kernel.NewMachine(cpu.Config2B2M2S, p.scheduler(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var targets map[*task.Thread]int
	var labels map[*task.Thread]colab.Label
	m.Engine().At(35*sim.Millisecond, func() {
		targets = p.lab.TargetTiers()
		labels = p.lab.Labels()
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if targets == nil {
		t.Fatal("snapshot not taken (run too short)")
	}
	if got := targets[hot]; got != 2 {
		t.Errorf("hot thread target tier %d, want 2 (big); labels=%v", got, labels[hot])
	}
	if got := targets[cold]; got != 0 {
		t.Errorf("cold thread target tier %d, want 0 (little)", got)
	}
	if got := targets[mid]; got != 1 {
		t.Errorf("middling thread target tier %d, want 1 (medium); label=%v", got, labels[mid])
	}
	if labels[mid] != colab.LabelMid {
		t.Errorf("middling thread label %v, want mid", labels[mid])
	}
}

// The tier-ranked selector keeps the whole tri-gear machine busy: a
// saturating compute workload should load every cluster, and faster tiers
// must retire more work per core than slower ones.
func TestTriGearSelectorLoadsAllTiers(t *testing.T) {
	a := newApp(0, "sat")
	for i := 0; i < 12; i++ {
		addThread(a, "w", middling, task.Program{task.Compute{Work: 60e6}})
	}
	w := &task.Workload{Name: "sat", Apps: []*task.App{a}}
	res := runColab(t, cpu.Config2B2M2S, w, oracle())
	util := make([]float64, 3)
	n := make([]float64, 3)
	for _, c := range res.Cores {
		total := c.BusyTime + c.IdleTime
		if total > 0 {
			util[c.Kind] += float64(c.BusyTime) / float64(total)
		}
		n[c.Kind]++
	}
	for tier := 0; tier < 3; tier++ {
		if u := util[tier] / n[tier]; u < 0.5 {
			t.Errorf("tier %d mean utilisation %.2f, want >= 0.5 (selector must keep clusters busy)", tier, u)
		}
	}
}
