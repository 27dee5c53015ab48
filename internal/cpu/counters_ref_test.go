package cpu

import (
	"testing"

	"colab/internal/mathx"
)

// sampleCountersOn is the one-shot form of the prepared sampling path:
// prepare p, then sample on tier t.
func sampleCountersOn(rng *mathx.RNG, p WorkProfile, t Tier, work, cycles, waitCycles float64) Vec {
	cp := PrepareCounters(p)
	return cp.Sample(rng, t.L2MissMult(), work, cycles, waitCycles)
}

// sampleCounters samples on the default-palette anchor tier of kind k.
func sampleCounters(rng *mathx.RNG, p WorkProfile, k Kind, work, cycles, waitCycles float64) Vec {
	t := TierBig
	if k == Little {
		t = TierLittle
	}
	return sampleCountersOn(rng, p, t, work, cycles, waitCycles)
}

// refSampleCountersOn is the unprepared counter synthesis the prepared path
// replaced, kept verbatim as the reference it must match bit for bit: it
// clamps the profile and derives every coefficient on each call.
func refSampleCountersOn(rng *mathx.RNG, p WorkProfile, t Tier, work, cycles, waitCycles float64) Vec {
	p = p.Clamp()
	var v Vec
	if work <= 0 {
		v[CtrCycles] = cycles
		v[CtrQuiesceCycles] = waitCycles
		return v
	}
	insts := work * p.InstPerWorkUnit()
	noise := func(base, amp float64) float64 {
		if base <= 0 {
			return 0
		}
		return rng.Jitter(base, amp)
	}

	branches := insts * p.BranchRate
	loads := insts * (0.12 + 0.28*p.MemIntensity)
	stores := insts * (0.04 + 0.20*p.StoreRate)
	fpWrites := insts * (0.05 + 0.65*p.FPRate)
	intWrites := insts * (0.55 - 0.30*p.FPRate)
	l1dMissRate := 0.002 + 0.055*p.MemIntensity
	l1dMisses := (loads + stores) * l1dMissRate
	l2MissRate := 0.05 + 0.45*p.MemIntensity
	if m := t.L2MissMult(); m != 1 { // smaller L2: more misses
		l2MissRate = mathx.Clamp(l2MissRate*m, 0, 0.95)
	}

	v[CtrCommittedInsts] = noise(insts, 0.02)
	v[CtrFPRegfileWrites] = noise(fpWrites, 0.05)
	v[CtrFetchBranches] = noise(branches, 0.04)
	v[CtrRenameSQFullEvents] = noise(insts*0.002*(0.2+3.0*p.StoreRate*p.MemIntensity), 0.10)
	v[CtrQuiesceCycles] = noise(waitCycles, 0.01)
	v[CtrDcacheTagsInUse] = noise(cycles*(0.15+0.80*p.MemIntensity), 0.05)
	v[CtrIcacheWaitRetryStalls] = noise(cycles*0.01*(0.1+2.5*p.CodeFootprint), 0.10)
	v[CtrIntRegfileWrites] = noise(intWrites, 0.05)
	v[CtrBranchMispredicts] = noise(branches*(0.015+0.06*(1-p.ILP)), 0.08)
	v[CtrDcacheMisses] = noise(l1dMisses, 0.08)
	v[CtrDcacheWritebacks] = noise(stores*l1dMissRate*0.6, 0.10)
	v[CtrL2Accesses] = noise(l1dMisses*1.1, 0.08)
	v[CtrL2Misses] = noise(l1dMisses*l2MissRate, 0.10)
	v[CtrITLBMisses] = noise(insts*0.0002*(0.2+2.0*p.CodeFootprint), 0.15)
	v[CtrDTLBMisses] = noise((loads+stores)*0.0008*(0.3+1.5*p.MemIntensity), 0.15)
	v[CtrLoadInsts] = noise(loads, 0.03)
	v[CtrStoreInsts] = noise(stores, 0.03)
	v[CtrROBFullEvents] = noise(cycles*0.004*(1-0.7*p.ILP)*(0.3+p.MemIntensity), 0.12)
	v[CtrIQFullEvents] = noise(cycles*0.003*(0.2+p.ILP*0.5), 0.12)
	v[CtrFetchCycles] = noise(cycles*(0.60+0.25*p.ILP), 0.04)
	v[CtrIdleCycles] = noise(cycles*(0.10+0.40*p.MemIntensity), 0.06)
	v[CtrMemOrderViolations] = noise(insts*0.0004*p.StoreRate*(0.5+p.ILP), 0.20)
	v[CtrSquashedInsts] = noise(branches*(0.015+0.06*(1-p.ILP))*8, 0.10)
	v[CtrCycles] = cycles
	return v
}

// counterTestTiers is every tier of every named palette, the medium tier
// and a tier with no declared L2 (the Uarch fallback of L2MissMult).
func counterTestTiers() []Tier {
	tiers := []Tier{TierMedium, {Name: "noL2", FreqMHz: 1000, Uarch: 0.5, Capacity: 1.2, MinSpeedup: 1, MaxSpeedup: 2}}
	for _, c := range NamedConfigs() {
		tiers = append(tiers, c.Tiers()...)
	}
	return tiers
}

// randomProfile draws a profile whose fields may fall outside their valid
// ranges (Clamp must fix them) or be exactly zero (a zero BranchRate or
// StoreRate makes some counter bases zero, which skips their draws).
func randomProfile(g *mathx.RNG) WorkProfile {
	field := func() float64 {
		switch g.IntN(5) {
		case 0:
			return 0
		case 1:
			return g.Range(-0.5, 1.5)
		default:
			return g.Float64()
		}
	}
	return WorkProfile{ILP: field(), BranchRate: field(), MemIntensity: field(), StoreRate: field(), FPRate: field(), CodeFootprint: field()}
}

// The prepared path must reproduce the reference bit for bit, and leave the
// RNG at the same stream position: the counter stream feeds the speedup
// model, so one extra or missing draw would shift every later schedule.
func TestPreparedCountersMatchReference(t *testing.T) {
	g := mathx.NewRNG(17)
	tiers := counterTestTiers()
	for i := 0; i < 2000; i++ {
		p := randomProfile(g)
		tier := tiers[g.IntN(len(tiers))]
		work := g.Range(-1e5, 1e7)
		if g.IntN(8) == 0 {
			work = 0
		}
		cycles, wait := g.Range(0, 2e7), 0.0
		switch g.IntN(4) {
		case 0:
			cycles = 0
		case 1:
			wait = g.Range(0, 1e6)
		}
		seed := g.Uint64()
		refRNG, gotRNG := mathx.NewRNG(seed), mathx.NewRNG(seed)
		want := refSampleCountersOn(refRNG, p, tier, work, cycles, wait)
		cp := PrepareCounters(p)
		got := cp.Sample(gotRNG, tier.L2MissMult(), work, cycles, wait)
		if got != want {
			t.Fatalf("case %d (%+v on %q, work %v, cycles %v, wait %v):\n got %v\nwant %v", i, p, tier.Name, work, cycles, wait, got, want)
		}
		if a, b := gotRNG.Uint64(), refRNG.Uint64(); a != b {
			t.Fatalf("case %d: RNG stream position drifted (next draw %#x, reference %#x)", i, a, b)
		}
	}
}

// Sampling runs on every accrual of the kernel's hot path: it must not
// allocate.
func TestSampleCountersAllocFree(t *testing.T) {
	rng := mathx.NewRNG(1)
	cp := PrepareCounters(WorkProfile{ILP: 0.6, BranchRate: 0.12, MemIntensity: 0.4, StoreRate: 0.3, FPRate: 0.4, CodeFootprint: 0.3})
	m := TierMedium.L2MissMult()
	var sink Vec
	if n := testing.AllocsPerRun(100, func() { sink = cp.Sample(rng, m, 1e6, 2e6, 0) }); n != 0 {
		t.Fatalf("Sample allocates %v times per call, want 0", n)
	}
	_ = sink
}

// BenchmarkSampleCounters measures one prepared counter sample on the
// medium tier (the non-anchor L2 path), the per-accrual cost of counter
// synthesis.
func BenchmarkSampleCounters(b *testing.B) {
	rng := mathx.NewRNG(1)
	cp := PrepareCounters(WorkProfile{ILP: 0.6, BranchRate: 0.12, MemIntensity: 0.4, StoreRate: 0.3, FPRate: 0.4, CodeFootprint: 0.3})
	m := TierMedium.L2MissMult()
	var acc Vec
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := cp.Sample(rng, m, 1e6, 2e6, 0)
		acc.Add(&v)
	}
}
