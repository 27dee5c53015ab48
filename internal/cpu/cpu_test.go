package cpu

import (
	"testing"
	"testing/quick"

	"colab/internal/mathx"
)

func TestConfigShapes(t *testing.T) {
	for _, tc := range []struct {
		cfg         Config
		big, little int
	}{
		{Config2B2S, 2, 2},
		{Config2B4S, 2, 4},
		{Config4B2S, 4, 2},
		{Config4B4S, 4, 4},
	} {
		if len(tc.cfg.TierIndices(int(Big))) != tc.big || len(tc.cfg.TierIndices(int(Little))) != tc.little {
			t.Errorf("%s: %dB %dS", tc.cfg.Name, len(tc.cfg.TierIndices(int(Big))), len(tc.cfg.TierIndices(int(Little))))
		}
		if tc.cfg.NumCores() != tc.big+tc.little {
			t.Errorf("%s: cores %d", tc.cfg.Name, tc.cfg.NumCores())
		}
	}
}

func TestConfigOrdering(t *testing.T) {
	bf := NewConfig(2, 2, true)
	if bf.Kinds[0] != Big || bf.Kinds[3] != Little {
		t.Fatalf("big-first kinds = %v", bf.Kinds)
	}
	lf := NewConfig(2, 2, false)
	if lf.Kinds[0] != Little || lf.Kinds[3] != Big {
		t.Fatalf("little-first kinds = %v", lf.Kinds)
	}
	if bi := bf.TierIndices(int(Big)); len(bi) != 2 || bi[0] != 0 || bi[1] != 1 {
		t.Fatalf("big indices = %v", bi)
	}
	if li := lf.TierIndices(int(Little)); len(li) != 2 || li[0] != 0 || li[1] != 1 {
		t.Fatalf("little-first little indices = %v", li)
	}
}

func TestAllBigAndSymmetric(t *testing.T) {
	// The all-big metric baseline of a 6-core machine (§5.1 "Metrics").
	ab := NewSymmetric(Big, Config2B4S.NumCores())
	if ab.NumCores() != 6 || len(ab.TierIndices(int(Big))) != 6 || len(ab.TierIndices(int(Little))) != 0 {
		t.Fatalf("allbig = %v", ab.Kinds)
	}
	sym := NewSymmetric(Little, 3)
	if len(sym.TierIndices(int(Little))) != 3 || len(sym.TierIndices(int(Big))) != 0 {
		t.Fatalf("symmetric = %v", sym.Kinds)
	}
	if Config2B2S.Spec(0).Kind != Big || Config2B2S.Spec(3).Kind != Little {
		t.Fatalf("Spec kind mismatch")
	}
}

func TestConfigByName(t *testing.T) {
	for _, name := range []string{"2B2S", "2B4S", "4B2S", "4B4S"} {
		if _, ok := ConfigByName(name); !ok {
			t.Errorf("ConfigByName(%s) missing", name)
		}
	}
	if _, ok := ConfigByName("8B8S"); ok {
		t.Errorf("unknown config must not resolve")
	}
}

func TestTrueSpeedupDirections(t *testing.T) {
	base := WorkProfile{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.3}
	s0 := base.TrueSpeedup()
	hiILP := base
	hiILP.ILP = 0.9
	if hiILP.TrueSpeedup() <= s0 {
		t.Errorf("more ILP must raise big-core speedup")
	}
	hiMem := base
	hiMem.MemIntensity = 0.9
	if hiMem.TrueSpeedup() >= s0 {
		t.Errorf("more memory intensity must lower big-core speedup")
	}
	branchy := base
	branchy.BranchRate = 0.25
	if branchy.TrueSpeedup() <= s0 {
		t.Errorf("branchier code must gain more from the big core")
	}
}

// Property: speedups stay in the physical envelope and the base tier
// defines the work unit.
func TestSpeedupEnvelopeProperty(t *testing.T) {
	check := func(a, b, c, d, e, f float64) bool {
		p := WorkProfile{ILP: a, BranchRate: b, MemIntensity: c, StoreRate: d, FPRate: e, CodeFootprint: f}.Clamp()
		s := p.TrueSpeedup()
		if s < 1.05 || s > 2.85 {
			return false
		}
		return p.SpeedupOn(TierLittle) == 1.0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInstPerWorkUnitBounds(t *testing.T) {
	lo := WorkProfile{MemIntensity: 1}.InstPerWorkUnit()
	hi := WorkProfile{ILP: 1}.InstPerWorkUnit()
	if lo >= hi {
		t.Fatalf("memory-bound IPC %v !< compute IPC %v", lo, hi)
	}
	if lo <= 0 {
		t.Fatalf("IPC must be positive")
	}
}

func TestSampleCountersStructure(t *testing.T) {
	rng := mathx.NewRNG(1)
	p := WorkProfile{ILP: 0.6, BranchRate: 0.12, MemIntensity: 0.4, StoreRate: 0.3, FPRate: 0.4, CodeFootprint: 0.3}
	v := sampleCounters(rng, p, Big, 1e6, 2e6, 0)
	if v[CtrCommittedInsts] <= 0 {
		t.Fatalf("no instructions")
	}
	if v[CtrCycles] != 2e6 {
		t.Fatalf("cycles = %v", v[CtrCycles])
	}
	for i, val := range v {
		if val < 0 {
			t.Fatalf("counter %s negative: %v", Counter(i).Name(), val)
		}
	}
	if v[CtrFetchBranches] >= v[CtrCommittedInsts] {
		t.Fatalf("more branches than instructions")
	}
	// Zero work: only cycle/quiesce counters may be set.
	z := sampleCounters(rng, p, Big, 0, 100, 40)
	if z[CtrCommittedInsts] != 0 || z[CtrQuiesceCycles] != 40 || z[CtrCycles] != 100 {
		t.Fatalf("zero-work sample wrong: %v", z)
	}
}

func TestCountersReflectProfile(t *testing.T) {
	rng := mathx.NewRNG(2)
	memHeavy := WorkProfile{ILP: 0.2, MemIntensity: 0.9, StoreRate: 0.5}
	cpuHeavy := WorkProfile{ILP: 0.9, MemIntensity: 0.05, FPRate: 0.7}
	vm := sampleCounters(rng, memHeavy, Big, 1e7, 2e7, 0).NormalizeByInsts()
	vc := sampleCounters(rng, cpuHeavy, Big, 1e7, 2e7, 0).NormalizeByInsts()
	if vm[CtrDcacheMisses] <= vc[CtrDcacheMisses] {
		t.Errorf("memory-heavy profile must miss more in L1D")
	}
	if vc[CtrFPRegfileWrites] <= vm[CtrFPRegfileWrites] {
		t.Errorf("FP-heavy profile must write FP regfile more")
	}
}

func TestNormalizeByInsts(t *testing.T) {
	var v Vec
	v[CtrCommittedInsts] = 100
	v[CtrFetchBranches] = 20
	n := v.NormalizeByInsts()
	if n[CtrFetchBranches] != 0.2 || n[CtrCommittedInsts] != 100 {
		t.Fatalf("normalise wrong: %v %v", n[CtrFetchBranches], n[CtrCommittedInsts])
	}
	var zero Vec
	if z := zero.NormalizeByInsts(); z != (Vec{}) {
		t.Fatalf("zero-inst normalise must be zero")
	}
}

func TestVecAddScale(t *testing.T) {
	var a, b Vec
	a[0], b[0] = 1, 2
	a.Add(&b)
	if a[0] != 3 {
		t.Fatalf("Add = %v", a[0])
	}
	a.Add(&a)
	if a[0] != 6 {
		t.Fatalf("Add to itself = %v", a[0])
	}
}

func TestCounterDefsComplete(t *testing.T) {
	if len(Defs) != NumCounters {
		t.Fatalf("%d defs for %d counters", len(Defs), NumCounters)
	}
	seen := map[string]bool{}
	for i, d := range Defs {
		if int(d.Index) != i {
			t.Errorf("def %d has index %d", i, d.Index)
		}
		if d.Name == "" || seen[d.Name] {
			t.Errorf("bad/duplicate counter name %q", d.Name)
		}
		seen[d.Name] = true
	}
	// The paper's Table 2 counters must all exist.
	for _, name := range []string{
		"fp_regfile_writes", "fetch.Branches", "rename.SQFullEvents",
		"quiesceCycles", "dcache.tags.tagsinuse",
		"fetch.IcacheWaitRetryStallCycles", "commit.committedInsts",
	} {
		if !seen[name] {
			t.Errorf("paper counter %q missing", name)
		}
	}
}
