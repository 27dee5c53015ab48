package cpu

import "colab/internal/sim"

// PowerModel assigns busy/idle power draw to the two anchor core types. The
// defaults approximate per-core figures reported for Cortex-A57 (big) and
// Cortex-A53 (little) at the simulated clocks. Middle tiers interpolate
// between the anchors by out-of-order strength, and per-OPP power states
// follow the cube of the frequency ratio (P ~ f*V^2 with V ~ f), so the
// model extends to any tier palette without new knobs. The paper motivates
// AMPs with energy-limited devices but reports no energy numbers; this
// model is an extension that lets the harness compare the schedulers'
// energy and energy-delay product on identical workloads.
type PowerModel struct {
	BigBusyW    float64
	BigIdleW    float64
	LittleBusyW float64
	LittleIdleW float64
}

// DefaultPower is the standard big.LITTLE-like power model.
var DefaultPower = PowerModel{
	BigBusyW:    1.80,
	BigIdleW:    0.12,
	LittleBusyW: 0.45,
	LittleIdleW: 0.03,
}

// TierBusyW returns the tier's busy power at its nominal operating point:
// the anchor values for the anchor tiers, linear interpolation in
// out-of-order strength between them.
func (p PowerModel) TierBusyW(t Tier) float64 {
	switch {
	case t.Uarch >= 1:
		return p.BigBusyW
	case t.Uarch <= 0:
		return p.LittleBusyW
	default:
		return p.LittleBusyW + t.Uarch*(p.BigBusyW-p.LittleBusyW)
	}
}

// TierIdleW returns the tier's idle power, interpolated like TierBusyW.
// Idle power is frequency-independent (clock-gated cores leak, they do not
// switch).
func (p PowerModel) TierIdleW(t Tier) float64 {
	switch {
	case t.Uarch >= 1:
		return p.BigIdleW
	case t.Uarch <= 0:
		return p.LittleIdleW
	default:
		return p.LittleIdleW + t.Uarch*(p.BigIdleW-p.LittleIdleW)
	}
}

// OPPBusyW returns the tier's busy power at the given ladder frequency:
// nominal busy power scaled by the cube of the frequency ratio (dynamic
// power ~ f*V^2 and voltage tracks frequency on DVFS ladders).
func (p PowerModel) OPPBusyW(t Tier, freqMHz int) float64 {
	busy := p.TierBusyW(t)
	if freqMHz == t.FreqMHz {
		return busy
	}
	r := float64(freqMHz) / float64(t.FreqMHz)
	return busy * r * r * r
}

// TierEnergyJ returns the energy consumed by one core of tier t given its
// busy time at each operating point of the tier's ladder plus its total
// idle time. busyByOPP must be indexed like t.Ladder().
func (p PowerModel) TierEnergyJ(t Tier, busyByOPP []sim.Time, idle sim.Time) float64 {
	ladder := t.Ladder()
	e := 0.0
	for i, busy := range busyByOPP {
		if busy == 0 {
			continue
		}
		e += p.OPPBusyW(t, ladder[i]) * busy.Seconds()
	}
	return e + p.TierIdleW(t)*idle.Seconds()
}
