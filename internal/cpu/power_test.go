package cpu

import (
	"testing"

	"colab/internal/sim"
)

// coreEnergyJ is the energy of one default-palette core busy at its
// nominal operating point for busy and idle for idle.
func coreEnergyJ(p PowerModel, t Tier, busy, idle sim.Time) float64 {
	byOPP := make([]sim.Time, len(t.Ladder()))
	byOPP[len(byOPP)-1] = busy
	return p.TierEnergyJ(t, byOPP, idle)
}

func TestCoreEnergyJ(t *testing.T) {
	pm := PowerModel{BigBusyW: 2, BigIdleW: 0.5, LittleBusyW: 1, LittleIdleW: 0.1}
	// 1 s busy + 2 s idle on big: 2*1 + 0.5*2 = 3 J.
	if got := coreEnergyJ(pm, TierBig, sim.Second, 2*sim.Second); got != 3 {
		t.Fatalf("big energy = %v", got)
	}
	// Same on little: 1*1 + 0.1*2 = 1.2 J.
	if got := coreEnergyJ(pm, TierLittle, sim.Second, 2*sim.Second); got != 1.2 {
		t.Fatalf("little energy = %v", got)
	}
	if coreEnergyJ(pm, TierBig, 0, 0) != 0 {
		t.Fatalf("zero time must cost zero energy")
	}
}

func TestDefaultPowerOrdering(t *testing.T) {
	// Physical sanity: big busy > little busy > idle draws, all positive.
	p := DefaultPower
	if !(p.BigBusyW > p.LittleBusyW && p.LittleBusyW > p.BigIdleW && p.BigIdleW > p.LittleIdleW && p.LittleIdleW > 0) {
		t.Fatalf("implausible default power model: %+v", p)
	}
	// For equal busy time, the big core must cost more.
	if coreEnergyJ(DefaultPower, TierBig, sim.Second, 0) <= coreEnergyJ(DefaultPower, TierLittle, sim.Second, 0) {
		t.Fatalf("big core must draw more than little")
	}
}
