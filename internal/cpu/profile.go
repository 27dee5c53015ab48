package cpu

import "colab/internal/mathx"

// WorkProfile is the hidden microarchitectural character of a thread's
// compute work. It is ground truth known only to the simulator; schedulers
// observe it indirectly through the synthetic performance counters.
//
// All fields are dimensionless in [0, 1] except BranchRate (branches per
// instruction, realistically <= ~0.3).
type WorkProfile struct {
	// ILP is exploitable instruction-level parallelism. High-ILP code gains
	// the most from the out-of-order big core.
	ILP float64
	// BranchRate is branches per instruction. Branchy code benefits from the
	// big core's predictor but suffers on the in-order little core.
	BranchRate float64
	// MemIntensity is pressure on the memory hierarchy. Memory-bound work
	// gains little from a faster pipeline.
	MemIntensity float64
	// StoreRate is store-queue pressure (drives rename.SQFullEvents).
	StoreRate float64
	// FPRate is the floating-point fraction of the instruction mix.
	FPRate float64
	// CodeFootprint is instruction-cache pressure (drives icache stalls).
	CodeFootprint float64
}

// Clamp returns the profile with all fields limited to their valid ranges.
func (p WorkProfile) Clamp() WorkProfile {
	p.ILP = mathx.Clamp(p.ILP, 0, 1)
	p.BranchRate = mathx.Clamp(p.BranchRate, 0, 0.3)
	p.MemIntensity = mathx.Clamp(p.MemIntensity, 0, 1)
	p.StoreRate = mathx.Clamp(p.StoreRate, 0, 1)
	p.FPRate = mathx.Clamp(p.FPRate, 0, 1)
	p.CodeFootprint = mathx.Clamp(p.CodeFootprint, 0, 1)
	return p
}

// uarchFactor is the profile's out-of-order benefit: how much faster a full
// OoO pipeline (at equal clock) retires this work than the in-order base.
// OoO execution pays off for high-ILP, branchy, cache-friendly code and is
// wasted on memory-bound code.
func (p WorkProfile) uarchFactor() float64 {
	uarch := 1.0 +
		0.55*p.ILP + // OoO window exploits independent instructions
		0.20*(p.BranchRate/0.3) - // better predictor + speculation depth
		0.45*p.MemIntensity - // memory wall: frequency does not help
		0.10*p.CodeFootprint // the bigger L1I helps, but front-end stalls cap gains
	return mathx.Clamp(uarch, 0.70, 1.70)
}

// SpeedupOn is the factor by which a core of tier t retires this work
// faster than a base-tier core at nominal frequency. It composes the tier's
// clock ratio over the 1.2 GHz reference with the tier-weighted
// microarchitectural factor: tiers between the in-order base (Uarch 0) and
// the full out-of-order big core (Uarch 1) receive a proportional share of
// the OoO benefit. The result is clamped to the tier's physical envelope;
// for the big anchor that lands in roughly [1.1, 2.8], matching the spread
// big.LITTLE studies report.
func (p WorkProfile) SpeedupOn(t Tier) float64 {
	if t.Uarch <= 0 && t.FreqMHz == RefFreqMHz {
		return 1.0 // the base tier defines the work unit
	}
	p = p.Clamp()
	uarch := p.uarchFactor()
	if t.Uarch < 1 {
		uarch = 1 + t.Uarch*(uarch-1)
	}
	fr := float64(t.FreqMHz) / float64(RefFreqMHz)
	return mathx.Clamp(fr*uarch, t.MinSpeedup, t.MaxSpeedup)
}

// TrueSpeedup is the factor by which a big (top-anchor) core retires this
// work faster than a little core — the ground truth the paper's speedup
// model is trained to predict.
func (p WorkProfile) TrueSpeedup() float64 {
	return p.SpeedupOn(TierBig)
}

// RelSpeedup converts a predicted big-vs-little speedup into the expected
// speedup on tier t: 1.0 on the base tier, the prediction itself on the big
// anchor, and the tier-weighted interpolation in between. Policies use it
// to turn the trained model's two-anchor prediction into per-tier
// scheduling decisions without retraining.
func (t Tier) RelSpeedup(pred float64) float64 {
	if t.Uarch <= 0 && t.FreqMHz == RefFreqMHz {
		return 1.0
	}
	if t.Uarch >= 1 && t.FreqMHz == TierBig.FreqMHz {
		return pred
	}
	uarch := pred / FreqRatio // recover the microarchitectural factor
	if t.Uarch < 1 {
		uarch = 1 + t.Uarch*(uarch-1)
	}
	s := float64(t.FreqMHz) / float64(RefFreqMHz) * uarch
	s = mathx.Clamp(s, t.MinSpeedup, t.MaxSpeedup)
	// A lower tier never outruns the big anchor the prediction is for:
	// keep the tier order monotone even for degenerate predictions.
	if pred > 1 && s > pred {
		s = pred
	} else if pred <= 1 {
		s = 1
	}
	return s
}

// InstPerWorkUnit converts work units to retired instructions for counter
// synthesis: a little core at 1.2 GHz with the profile-dependent IPC.
func (p WorkProfile) InstPerWorkUnit() float64 {
	p = p.Clamp()
	// In-order IPC model: base 0.9, helped by ILP up to ~1.3, hurt by
	// memory stalls down to ~0.4.
	ipc := mathx.Clamp(0.9+0.4*p.ILP-0.5*p.MemIntensity, 0.35, 1.35)
	return ipc * (float64(RefFreqMHz) / 1000.0) // instructions per ns of little-core time
}
