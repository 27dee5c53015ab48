package cpu

import (
	"testing"
	"testing/quick"
)

func TestSpeedupOnAnchorsMatchLegacy(t *testing.T) {
	// The tiered speedup must reduce exactly to the two-kind model: the
	// base tier defines the work unit and the big anchor is TrueSpeedup.
	f := func(ilp, br, mem, store, fp, code float64) bool {
		p := WorkProfile{ILP: ilp, BranchRate: br, MemIntensity: mem,
			StoreRate: store, FPRate: fp, CodeFootprint: code}.Clamp()
		return p.SpeedupOn(TierLittle) == 1.0 &&
			p.SpeedupOn(TierBig) == p.TrueSpeedup() &&
			p.SpeedupOn(TierLittleDVFS) == 1.0 &&
			p.SpeedupOn(TierBigDVFS) == p.TrueSpeedup()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupOnMediumBetweenAnchors(t *testing.T) {
	f := func(ilp, mem float64) bool {
		p := WorkProfile{ILP: ilp, MemIntensity: mem, BranchRate: 0.1}.Clamp()
		m := p.SpeedupOn(TierMedium)
		return m >= 1.0 && m <= p.SpeedupOn(TierBig) && m >= TierMedium.MinSpeedup && m <= TierMedium.MaxSpeedup
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRelSpeedupAnchors(t *testing.T) {
	for _, pred := range []float64{1.0, 1.3, 1.8, 2.85} {
		if got := TierLittle.RelSpeedup(pred); got != 1.0 {
			t.Errorf("little RelSpeedup(%v) = %v, want 1", pred, got)
		}
		if got := TierBig.RelSpeedup(pred); got != pred {
			t.Errorf("big RelSpeedup(%v) = %v, want identity", pred, got)
		}
		m := TierMedium.RelSpeedup(pred)
		if m < 1.0 || m > pred+1e-12 {
			t.Errorf("medium RelSpeedup(%v) = %v outside [1, pred]", pred, m)
		}
	}
}

func TestTierValidate(t *testing.T) {
	for _, tier := range TriGearTiers() {
		if err := tier.Validate(); err != nil {
			t.Errorf("%s: %v", tier.Name, err)
		}
	}
	bad := TierMedium
	bad.OPPsMHz = []int{1600, 1000} // not ascending
	if err := bad.Validate(); err == nil {
		t.Error("descending ladder accepted")
	}
	bad = TierMedium
	bad.OPPsMHz = []int{1000, 1300} // top != nominal
	if err := bad.Validate(); err == nil {
		t.Error("ladder not ending at nominal accepted")
	}
}

func TestNewTieredConfigLayout(t *testing.T) {
	cfg := Config2B2M2S
	if cfg.Name != "2B2M2S" {
		t.Fatalf("name %q", cfg.Name)
	}
	if cfg.NumCores() != 6 || cfg.NumTiers() != 3 {
		t.Fatalf("cores %d tiers %d", cfg.NumCores(), cfg.NumTiers())
	}
	// Big-first layout: big block, medium block, little block.
	wantKinds := []Kind{2, 2, 1, 1, 0, 0}
	for i, k := range cfg.Kinds {
		if k != wantKinds[i] {
			t.Fatalf("kinds %v, want %v", cfg.Kinds, wantKinds)
		}
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.TierIndices(2)) != 2 || len(cfg.TierIndices(1)) != 2 || len(cfg.TierIndices(0)) != 2 {
		t.Errorf("per-tier counts: big=%d mid=%d little=%d", len(cfg.TierIndices(2)), len(cfg.TierIndices(1)), len(cfg.TierIndices(0)))
	}

	lf := NewTieredConfig(TriGearTiers(), []int{2, 2, 2}, false)
	if lf.Name != "2B2M2S-lf" {
		t.Errorf("little-first name %q", lf.Name)
	}
	if lf.Kinds[0] != 0 || lf.Kinds[5] != 2 {
		t.Errorf("little-first layout %v", lf.Kinds)
	}
}

func TestOrderedMatchesNewConfig(t *testing.T) {
	for _, cfg := range EvaluatedConfigs() {
		for _, bigFirst := range []bool{true, false} {
			want := NewConfig(len(cfg.TierIndices(int(Big))), len(cfg.TierIndices(int(Little))), bigFirst)
			got := cfg.Ordered(bigFirst)
			if got.Name != want.Name {
				t.Errorf("%s Ordered(%v) name %q, want %q", cfg.Name, bigFirst, got.Name, want.Name)
			}
			for i := range want.Kinds {
				if got.Kinds[i] != want.Kinds[i] {
					t.Errorf("%s Ordered(%v) kinds %v, want %v", cfg.Name, bigFirst, got.Kinds, want.Kinds)
					break
				}
			}
		}
	}
	// Ordering round-trips on the tri-gear shape.
	lf := Config2B2M2S.Ordered(false)
	back := lf.Ordered(true)
	if back.Name != Config2B2M2S.Name {
		t.Errorf("round-trip name %q", back.Name)
	}
}

func TestOPPPowerStates(t *testing.T) {
	p := DefaultPower
	if p.TierBusyW(TierBig) != p.BigBusyW || p.TierBusyW(TierLittle) != p.LittleBusyW {
		t.Error("anchor busy power drifted")
	}
	mid := p.TierBusyW(TierMedium)
	if mid <= p.LittleBusyW || mid >= p.BigBusyW {
		t.Errorf("medium busy %v outside anchors", mid)
	}
	// Per-OPP power: nominal exact, lower points cheaper, monotone.
	if p.OPPBusyW(TierMedium, TierMedium.FreqMHz) != mid {
		t.Error("nominal OPP power not exact")
	}
	prev := 0.0
	for _, f := range TierMedium.Ladder() {
		w := p.OPPBusyW(TierMedium, f)
		if w <= prev {
			t.Errorf("OPP power not increasing at %d MHz", f)
		}
		prev = w
	}
	if p.OPPBusyW(TierMedium, 1000) >= mid {
		t.Error("downclocked point not cheaper than nominal")
	}
}

func TestConfigByNameIncludesTriGear(t *testing.T) {
	cfg, ok := ConfigByName("2B2M2S")
	if !ok || cfg.NumTiers() != 3 {
		t.Fatalf("2B2M2S not resolvable: %v %v", cfg, ok)
	}
	if _, ok := ConfigByName("2B2S"); !ok {
		t.Fatal("paper config lost")
	}
}
