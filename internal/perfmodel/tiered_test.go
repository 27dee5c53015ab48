package perfmodel

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/mathx"
)

func trainTriGear(t *testing.T) *TieredModel {
	t.Helper()
	tm, err := TrainTiered(cpu.TriGearTiers(), CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// Per-tier training must fit one real model per upper tier with usable
// quality — the medium tier gets its own regression over medium-core
// counter runs, not an interpolation of the big anchor's.
func TestTrainTieredFitsPerTierModels(t *testing.T) {
	tm := trainTriGear(t)
	if tm.Models[0] != nil {
		t.Error("base tier must not carry a model")
	}
	for k := 1; k < tm.NumTiers(); k++ {
		m := tm.Models[k]
		if m == nil {
			t.Fatalf("tier %d has no model", k)
		}
		if len(m.Features) != NumSelected {
			t.Errorf("tier %d selected %d counters, want %d", k, len(m.Features), NumSelected)
		}
		if m.R2 < 0.5 {
			t.Errorf("tier %d fit R2=%.3f, want >= 0.5", k, m.R2)
		}
		t.Logf("tier %q: %d samples, R2=%.3f MAE=%.3f", tm.Tiers[k].Name, m.Samples, m.R2, m.MAE)
	}
}

// Predictions must respect the tier order (a medium core never predicted
// faster than the big core) and each tier's physical envelope.
func TestTieredPredictionsOrderedAndClamped(t *testing.T) {
	tm := trainTriGear(t)
	rng := mathx.NewRNG(7)
	profiles := []cpu.WorkProfile{
		{ILP: 0.9, BranchRate: 0.12, MemIntensity: 0.05, FPRate: 0.6}, // core-sensitive
		{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.35, FPRate: 0.3},  // middling
		{ILP: 0.1, BranchRate: 0.05, MemIntensity: 0.95},              // memory-bound
	}
	for _, p := range profiles {
		v := sampleOn(rng, p, cpu.TierMedium, 1e7, 2e7)
		if got := tm.PredictTier(0, v); got != 1.0 {
			t.Errorf("base tier prediction %v, want 1", got)
		}
		med, big := tm.PredictTier(1, v), tm.PredictTier(2, v)
		if med > big+1e-9 {
			t.Errorf("profile %+v: medium %.3f predicted above big %.3f", p, med, big)
		}
		for k := 1; k < tm.NumTiers(); k++ {
			tier := tm.Tiers[k]
			s := tm.PredictTier(k, v)
			if s < tier.MinSpeedup || s > tier.MaxSpeedup {
				t.Errorf("tier %q prediction %.3f outside [%v, %v]", tier.Name, s, tier.MinSpeedup, tier.MaxSpeedup)
			}
		}
	}
	// Counter-free vectors fall back to the tier-interpolated neutral.
	if got, want := tm.PredictTier(2, cpu.Vec{}), cpu.TierBigDVFS.RelSpeedup(DefaultNeutralSpeedup); got != want {
		t.Errorf("neutral big prediction %v, want %v", got, want)
	}
}

// The medium-tier model must track the ground truth better than the PR-1
// interpolation fallback (RelSpeedup over the big-anchor prediction) on its
// own training distribution — the whole point of collecting medium-core
// runs.
func TestTieredBeatsInterpolationOnMedium(t *testing.T) {
	tiers := cpu.TriGearTiers()
	samples, err := CollectTieredSamples(tiers, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tm := trainTriGear(t)
	big, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	var trained, interp []float64
	for _, s := range samples[1] {
		trained = append(trained, abs(tm.PredictTier(1, s.Counters)-s.Speedup))
		interp = append(interp, abs(tiers[1].RelSpeedup(big.Predict(s.Counters))-s.Speedup))
	}
	mt, mi := mathx.Mean(trained), mathx.Mean(interp)
	t.Logf("medium-tier MAE: trained=%.4f interpolated=%.4f over %d samples", mt, mi, len(trained))
	if mt >= mi {
		t.Errorf("per-tier training MAE %.4f not better than interpolation %.4f", mt, mi)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
