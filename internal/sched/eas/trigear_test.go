package eas_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/task"
)

// On the tri-gear machine EAS fills the cheapest tiers first: light load
// should leave the big cluster nearly idle while littles (and mediums, as
// spill) do the work.
func TestTriGearPacksCheapTiersFirst(t *testing.T) {
	w := &task.Workload{Name: "light", Apps: []*task.App{mkApp(2, 20e6)}}
	res := runEAS(t, cpu.Config2B2M2S, w)
	var byTier [3]float64
	for _, c := range res.Cores {
		byTier[c.Kind] += float64(c.BusyTime)
	}
	if byTier[2] > 0.2*(byTier[0]+byTier[1]+byTier[2]) {
		t.Errorf("big cluster did %.0f%% of busy time on light load", 100*byTier[2]/(byTier[0]+byTier[1]+byTier[2]))
	}
}

// The schedutil-like governor must actually downclock low-utilisation
// threads on DVFS ladders: EAS energy on the tri-gear machine stays below
// plain CFS energy for the same light workload.
func TestTriGearGovernorSavesEnergy(t *testing.T) {
	mkw := func() *task.Workload {
		a := &task.App{ID: 0, Name: "app"}
		for i := 0; i < 3; i++ {
			a.Threads = append(a.Threads, &task.Thread{App: a, Name: "t", Profile: plain,
				Program: task.Program{
					task.Compute{Work: 5e6}, task.Sleep{Duration: 8e6},
					task.Compute{Work: 5e6}, task.Sleep{Duration: 8e6},
					task.Compute{Work: 5e6},
				}})
		}
		return &task.Workload{Name: "bursty", Apps: []*task.App{a}}
	}
	run := func(s kernel.Scheduler) *kernel.Result {
		m, err := kernel.NewMachine(cpu.Config2B2M2S, s, mkw(), kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	easRes := run(newEAS(t))
	cfsRes := run(cfs.New())
	if easRes.TotalEnergyJ() >= cfsRes.TotalEnergyJ() {
		t.Errorf("EAS energy %.4f J not below CFS %.4f J on bursty tri-gear load",
			easRes.TotalEnergyJ(), cfsRes.TotalEnergyJ())
	}
	// The governor must have produced sub-nominal residency somewhere.
	downclocked := false
	for _, c := range easRes.Cores {
		for opp, busy := range c.BusyByOPP {
			if opp < len(c.BusyByOPP)-1 && busy > 0 {
				downclocked = true
			}
		}
	}
	if !downclocked {
		t.Error("no busy time at sub-nominal operating points; governor inactive")
	}
}
