package colab_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/colab"
	"colab/internal/sim"
	"colab/internal/task"
)

// The label→OPP decision table: critical and high-speedup work runs flat
// out, capped work runs at the ladder's middle step, middle-band work one
// step below nominal; single-point ladders always select their only entry.
func TestOPPForLabelTable(t *testing.T) {
	cases := []struct {
		label colab.Label
		opps  int
		want  int
	}{
		{colab.LabelBig, 3, 2},
		{colab.LabelFree, 3, 2},
		{colab.LabelMid, 3, 1},
		{colab.LabelLittle, 3, 1},
		{colab.LabelBig, 5, 4},
		{colab.LabelMid, 5, 3},
		{colab.LabelLittle, 5, 2},
		{colab.LabelBig, 1, 0},
		{colab.LabelLittle, 1, 0},
		{colab.LabelLittle, 2, 0},
		{colab.LabelMid, 2, 0},
		{colab.LabelFree, 2, 1},
	}
	for _, c := range cases {
		if got := colab.OPPForLabel(c.label, c.opps); got != c.want {
			t.Errorf("OPPForLabel(%v, %d) = %d, want %d", c.label, c.opps, got, c.want)
		}
	}
}

// Without the governor stage (the "colab" composition) every core stays at
// nominal, so a DVFS-laddered machine behaves exactly like the
// fixed-frequency paper setup under COLAB — even on the hot/cold mix the
// governor would cap.
func TestGovernorDisabledPinsNominal(t *testing.T) {
	res := runColab(t, cpu.Config2B2M2S, mixWorkload(120e6), oracle())
	var busy sim.Time
	for _, c := range res.Cores {
		busy += c.BusyTime
		for i, b := range c.BusyByOPP {
			if i != len(c.BusyByOPP)-1 && b != 0 {
				t.Errorf("%s(%d): %v busy at OPP %d without a governor", c.TierName, c.ID, b, i)
			}
		}
	}
	if busy == 0 {
		t.Fatal("no busy time recorded")
	}
}

// governed returns the oracle COLAB composition plus the active governor.
func governed() *pipeline {
	p := oracle()
	p.gov = colab.NewGovernor()
	return p
}

// runWithHold runs the hot/cold mix on 2B2M2S under the active governor
// with its downshift hold overridden.
func runWithHold(t *testing.T, hold sim.Time) *kernel.Result {
	t.Helper()
	p := governed()
	p.gov.SetHold(hold)
	m, err := kernel.NewMachine(cpu.Config2B2M2S, p.scheduler(), mixWorkload(120e6), kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mixWorkload builds a hot/cold thread mix that gives the labeler a real
// speedup spread: cold threads get LabelLittle and should be frequency-
// capped by the governor.
func mixWorkload(work float64) *task.Workload {
	a := newApp(0, "mix")
	for i := 0; i < 3; i++ {
		addThread(a, "hot", sensitive, task.Program{task.Compute{Work: work}})
		addThread(a, "cold", insensitive, task.Program{task.Compute{Work: work}})
	}
	return &task.Workload{Name: "mix", Apps: []*task.App{a}}
}

// The governor must actually move cores off the nominal point: on a
// hot/cold mix the capped cold threads leave low-OPP busy residency behind,
// and per-OPP residency always sums to the core's busy time.
func TestGovernorCapsAndAccountsResidency(t *testing.T) {
	res := runColab(t, cpu.Config2B2M2S, mixWorkload(120e6), governed())
	var nominal, total sim.Time
	for _, c := range res.Cores {
		var sum sim.Time
		for i, b := range c.BusyByOPP {
			sum += b
			total += b
			if i == len(c.BusyByOPP)-1 {
				nominal += b
			}
		}
		if sum != c.BusyTime {
			t.Errorf("%s(%d): BusyByOPP sums to %v, BusyTime %v", c.TierName, c.ID, sum, c.BusyTime)
		}
	}
	if nominal == total {
		t.Fatalf("governor never left the nominal point (busy %v all at nominal)", total)
	}
}

// Hysteresis: an effectively infinite hold time must forbid every downshift
// (cores boot at nominal and may only stay or boost), so all busy time lands
// on the nominal point even under the governor.
func TestGovernorHoldBlocksDownshift(t *testing.T) {
	res := runWithHold(t, sim.Time(1e15))
	for _, c := range res.Cores {
		for i, b := range c.BusyByOPP {
			if i != len(c.BusyByOPP)-1 && b != 0 {
				t.Errorf("%s(%d): %v busy at OPP %d despite infinite hold", c.TierName, c.ID, b, i)
			}
		}
	}
}

// A short hold must yield strictly more sub-nominal residency than a long
// one on the same deterministic mix (single-step downshifts per hold
// period).
func TestGovernorHoldThrottlesDownshifts(t *testing.T) {
	subNominal := func(hold sim.Time) sim.Time {
		res := runWithHold(t, hold)
		var sub sim.Time
		for _, c := range res.Cores {
			for i, b := range c.BusyByOPP {
				if i != len(c.BusyByOPP)-1 {
					sub += b
				}
			}
		}
		return sub
	}
	fast, slow := subNominal(sim.Millisecond), subNominal(40*sim.Millisecond)
	if fast <= slow {
		t.Fatalf("sub-nominal residency: hold=1ms %v <= hold=40ms %v; hysteresis not throttling", fast, slow)
	}
}
