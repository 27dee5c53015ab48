package kernel_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
)

// oneCoreTier builds a single-core config of the given tier.
func oneCoreTier(tier cpu.Tier) cpu.Config {
	return cpu.Config{Name: "1" + tier.Name, Kinds: []cpu.Kind{0}, TierSet: []cpu.Tier{tier}}
}

func soloWorkload(name string, prof cpu.WorkProfile, work float64) *task.Workload {
	app := mkApp(0, name, []cpu.WorkProfile{prof}, []task.Program{{task.Compute{Work: work}}})
	return &task.Workload{Name: name, Apps: []*task.App{app}}
}

func TestTierCoreLayout(t *testing.T) {
	w := soloWorkload("layout", fastProfile, 1e6)
	m, err := kernel.NewMachine(cpu.Config2B2M2S, cfs.New(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTiers() != 3 || m.TopTier() != 2 {
		t.Fatalf("tiers=%d top=%d", m.NumTiers(), m.TopTier())
	}
	wantTier := map[int][]int{0: {4, 5}, 1: {2, 3}, 2: {0, 1}}
	for tier, want := range wantTier {
		got := m.TierCoreIDs(tier)
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("tier %d cores %v, want %v", tier, got, want)
		}
	}
	// Legacy accessors map to the top/base tiers.
	if ids := m.BigCoreIDs(); ids[0] != 0 || ids[1] != 1 {
		t.Errorf("BigCoreIDs %v", ids)
	}
	if ids := m.LittleCoreIDs(); ids[0] != 4 || ids[1] != 5 {
		t.Errorf("LittleCoreIDs %v", ids)
	}
	for _, c := range m.Cores() {
		if c.NumOPPs() != 3 {
			t.Errorf("%v: %d OPPs, want 3 (DVFS ladders on every tri-gear tier)", c, c.NumOPPs())
		}
		if c.FreqMHz() != c.Tier.FreqMHz {
			t.Errorf("%v boots at %d MHz, want nominal %d", c, c.FreqMHz(), c.Tier.FreqMHz)
		}
	}
}

func TestMediumTierRatesBetweenAnchors(t *testing.T) {
	const work = 20e6
	mk := func() *task.Workload { return soloWorkload("rate", fastProfile, work) }
	little := runOn(t, oneCoreTier(cpu.TierLittle), cfs.New(), mk()).Apps[0].Turnaround
	medium := runOn(t, oneCoreTier(cpu.TierMedium), cfs.New(), mk()).Apps[0].Turnaround
	big := runOn(t, oneCoreTier(cpu.TierBig), cfs.New(), mk()).Apps[0].Turnaround
	if !(big < medium && medium < little) {
		t.Fatalf("turnarounds not tier-ordered: big=%v medium=%v little=%v", big, medium, little)
	}
	wantMedium := float64(little) / fastProfile.SpeedupOn(cpu.TierMedium)
	if ratio := float64(medium) / wantMedium; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("medium turnaround %v, want ~%v", medium, sim.Time(wantMedium))
	}
}

// fixedOPP wraps CFS with a governor pinning every dispatch to one OPP.
type fixedOPP struct {
	kernel.Scheduler
	opp int
}

func (f *fixedOPP) SelectOPP(c *kernel.Core, t *task.Thread) int { return f.opp }

func TestDVFSGovernorScalesRateAndEnergy(t *testing.T) {
	const work = 20e6
	run := func(opp int) *kernel.Result {
		w := soloWorkload("dvfs", fastProfile, work)
		m, err := kernel.NewMachine(oneCoreTier(cpu.TierMedium),
			&fixedOPP{Scheduler: cfs.New(), opp: opp}, w, kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	nominal := run(2) // 1600 MHz
	slow := run(0)    // 1000 MHz
	ratio := float64(slow.Apps[0].Turnaround) / float64(nominal.Apps[0].Turnaround)
	want := 1600.0 / 1000.0
	if ratio < want*0.99 || ratio > want*1.01 {
		t.Errorf("downclocked slowdown %.3f, want ~%.3f", ratio, want)
	}
	// Busy-time residency lands on the programmed point.
	if slow.Cores[0].BusyByOPP[0] == 0 || slow.Cores[0].BusyByOPP[2] != 0 {
		t.Errorf("slow run residency %v, want all at OPP 0", slow.Cores[0].BusyByOPP)
	}
	// Cube-law power beats the linear slowdown: less busy energy overall.
	busyJ := func(r *kernel.Result) float64 {
		idle := cpu.DefaultPower.TierIdleW(cpu.TierMedium) * r.Cores[0].IdleTime.Seconds()
		return r.Cores[0].EnergyJ - idle
	}
	if busyJ(slow) >= busyJ(nominal) {
		t.Errorf("downclocked busy energy %.4f J not below nominal %.4f J", busyJ(slow), busyJ(nominal))
	}
}

func TestFixedFrequencyTiersSkipGovernor(t *testing.T) {
	// A governor on a fixed-frequency (paper) machine must never fire.
	w := soloWorkload("fixed", fastProfile, 1e6)
	pol := &fixedOPP{Scheduler: cfs.New(), opp: 0}
	m, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Big, 1), pol, w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores[0].BusyByOPP) != 1 || res.Cores[0].BusyByOPP[0] != res.Cores[0].BusyTime {
		t.Errorf("fixed-frequency residency %v, busy %v", res.Cores[0].BusyByOPP, res.Cores[0].BusyTime)
	}
}

func TestInvalidTierConfigRejected(t *testing.T) {
	w := soloWorkload("bad", fastProfile, 1e6)
	bad := cpu.Config{Name: "bad", Kinds: []cpu.Kind{0, 5}, TierSet: cpu.TriGearTiers()}
	if _, err := kernel.NewMachine(bad, cfs.New(), w, kernel.Params{}); err == nil {
		t.Fatal("out-of-range tier index accepted")
	}
	desc := cpu.Config{Name: "desc", Kinds: []cpu.Kind{0, 1},
		TierSet: []cpu.Tier{cpu.TierBig, cpu.TierLittle}} // capacity not ascending
	w2 := soloWorkload("bad2", fastProfile, 1e6)
	if _, err := kernel.NewMachine(desc, cfs.New(), w2, kernel.Params{}); err == nil {
		t.Fatal("descending tier palette accepted")
	}
}
