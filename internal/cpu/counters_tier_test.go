package cpu

import (
	"testing"

	"colab/internal/mathx"
)

// The tier-aware synthesis must reproduce the two-tier model bit-for-bit on
// the anchor tiers (the golden-corpus guarantee) — same RNG stream, same
// values.
func TestSampleCountersOnMatchesAnchors(t *testing.T) {
	p := WorkProfile{ILP: 0.6, BranchRate: 0.1, MemIntensity: 0.5, StoreRate: 0.3, FPRate: 0.2, CodeFootprint: 0.4}
	for _, c := range []struct {
		kind Kind
		tier Tier
	}{{Big, TierBig}, {Little, TierLittle}, {Big, TierBigDVFS}, {Little, TierLittleDVFS}} {
		a := sampleCounters(mathx.NewRNG(3), p, c.kind, 1e7, 2e7, 5e5)
		b := sampleCountersOn(mathx.NewRNG(3), p, c.tier, 1e7, 2e7, 5e5)
		if a != b {
			t.Errorf("tier %q drifts from kind %v synthesis:\n %v\nvs %v", c.tier.Name, c.kind, a, b)
		}
	}
}

// Middle tiers must stop emitting big-like counters: the medium core's
// 1 MiB L2 puts its miss counters strictly between the big (2 MiB) and
// little (512 KiB) anchors for the same work.
func TestMediumTierCountersBetweenAnchors(t *testing.T) {
	p := WorkProfile{ILP: 0.4, BranchRate: 0.08, MemIntensity: 0.7, StoreRate: 0.4}
	perInst := func(tier Tier) float64 {
		v := sampleCountersOn(mathx.NewRNG(11), p, tier, 1e7, 2e7, 0).NormalizeByInsts()
		return v[CtrL2Misses]
	}
	big, med, little := perInst(TierBig), perInst(TierMedium), perInst(TierLittle)
	if !(big < med && med < little) {
		t.Fatalf("L2 misses/inst not ordered big < medium < little: %.6g, %.6g, %.6g", big, med, little)
	}
}

// The miss multiplier is anchored exactly and monotone in L2 size; tiers
// without a declared L2 fall back to Uarch interpolation.
func TestL2MissMultAnchors(t *testing.T) {
	if got := TierBig.L2MissMult(); got != 1.0 {
		t.Errorf("big multiplier %v, want exactly 1", got)
	}
	if got := TierLittle.L2MissMult(); got != 1.8 {
		t.Errorf("little multiplier %v, want exactly 1.8", got)
	}
	m := TierMedium.L2MissMult()
	if !(1.0 < m && m < 1.8) {
		t.Errorf("medium multiplier %v outside (1, 1.8)", m)
	}
	noL2 := Tier{Name: "x", FreqMHz: 1000, Uarch: 0.5, Capacity: 1.2, MinSpeedup: 1, MaxSpeedup: 2}
	if got, want := noL2.L2MissMult(), 1.8-0.8*0.5; got != want {
		t.Errorf("no-L2 fallback %v, want %v", got, want)
	}
}
