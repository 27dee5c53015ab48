package cpu

import (
	"fmt"
	"math"

	"colab/internal/mathx"
)

// The paper records all 225 gem5 performance counters of the simulated big
// cores, then PCA-selects the six with the largest effect on speedup
// modelling (Table 2). Emitting 225 counters would add bulk without adding
// behaviour, so this model synthesises a representative 24-counter vector —
// including all seven counters the paper's final model uses — from the
// hidden WorkProfile. The PCA + regression pipeline then runs unchanged.
// (Substitution documented in DESIGN.md §1.)

// Counter indexes the synthetic performance counter vector.
type Counter int

// The counter set. The first seven are the paper's Table 2 counters.
const (
	CtrCommittedInsts        Counter = iota // commit.committedInsts (paper: G)
	CtrFPRegfileWrites                      // fp_regfile_writes (paper: A)
	CtrFetchBranches                        // fetch.Branches (paper: B)
	CtrRenameSQFullEvents                   // rename.SQFullEvents (paper: C)
	CtrQuiesceCycles                        // quiesceCycles (paper: D)
	CtrDcacheTagsInUse                      // dcache.tags.tagsinuse (paper: E)
	CtrIcacheWaitRetryStalls                // fetch.IcacheWaitRetryStallCycles (paper: F)
	CtrIntRegfileWrites
	CtrBranchMispredicts
	CtrDcacheMisses
	CtrDcacheWritebacks
	CtrL2Misses
	CtrL2Accesses
	CtrITLBMisses
	CtrDTLBMisses
	CtrLoadInsts
	CtrStoreInsts
	CtrROBFullEvents
	CtrIQFullEvents
	CtrFetchCycles
	CtrIdleCycles
	CtrMemOrderViolations
	CtrSquashedInsts
	CtrCycles
	NumCounters int = iota
)

// Def describes one counter for reporting.
type Def struct {
	Index Counter
	Name  string
	Desc  string
}

// Defs lists all counter definitions in index order.
var Defs = []Def{
	{CtrCommittedInsts, "commit.committedInsts", "instructions committed"},
	{CtrFPRegfileWrites, "fp_regfile_writes", "FP regfile writes"},
	{CtrFetchBranches, "fetch.Branches", "branches encountered"},
	{CtrRenameSQFullEvents, "rename.SQFullEvents", "SQ-full blocks"},
	{CtrQuiesceCycles, "quiesceCycles", "interrupt waiting cycles"},
	{CtrDcacheTagsInUse, "dcache.tags.tagsinuse", "tags of dcache in use"},
	{CtrIcacheWaitRetryStalls, "fetch.IcacheWaitRetryStallCycles", "MSHR-full stall cycles"},
	{CtrIntRegfileWrites, "int_regfile_writes", "integer regfile writes"},
	{CtrBranchMispredicts, "branchPred.mispredicted", "mispredicted branches"},
	{CtrDcacheMisses, "dcache.misses", "L1D misses"},
	{CtrDcacheWritebacks, "dcache.writebacks", "L1D writebacks"},
	{CtrL2Misses, "l2.misses", "L2 misses"},
	{CtrL2Accesses, "l2.accesses", "L2 accesses"},
	{CtrITLBMisses, "itlb.misses", "ITLB misses"},
	{CtrDTLBMisses, "dtlb.misses", "DTLB misses"},
	{CtrLoadInsts, "commit.loads", "committed loads"},
	{CtrStoreInsts, "commit.stores", "committed stores"},
	{CtrROBFullEvents, "rename.ROBFullEvents", "ROB-full blocks"},
	{CtrIQFullEvents, "rename.IQFullEvents", "IQ-full blocks"},
	{CtrFetchCycles, "fetch.Cycles", "fetch active cycles"},
	{CtrIdleCycles, "decode.IdleCycles", "decode idle cycles"},
	{CtrMemOrderViolations, "iew.memOrderViolationEvents", "memory order violations"},
	{CtrSquashedInsts, "commit.squashedInsts", "squashed instructions"},
	{CtrCycles, "numCycles", "core cycles"},
}

// Name returns the gem5-style counter name.
func (c Counter) Name() string {
	if int(c) < 0 || int(c) >= NumCounters {
		return fmt.Sprintf("counter(%d)", int(c))
	}
	return Defs[c].Name
}

// Vec is one sampled counter vector.
type Vec [NumCounters]float64

// Add accumulates o into v. It takes o by pointer: the kernel adds every
// accrual's sample to two vectors.
func (v *Vec) Add(o *Vec) {
	for i := range v {
		v[i] += o[i]
	}
}

// NormalizeByInsts returns the vector with every counter divided by
// committed instructions (the paper normalises all counters to the number of
// committed instructions before regression). The instruction counter itself
// is preserved so models can still use absolute progress if they want.
func (v Vec) NormalizeByInsts() Vec {
	insts := v[CtrCommittedInsts]
	if insts <= 0 {
		return Vec{}
	}
	out := v
	for i := range out {
		if Counter(i) != CtrCommittedInsts {
			out[i] /= insts
		}
	}
	return out
}

// L2MissMult is the tier's L2 miss-rate multiplier relative to the big
// anchor's 2 MiB cache: miss rates grow with the logarithm of the capacity
// deficit, calibrated so the little anchor's 512 KiB cache misses 1.8x more
// and the big anchor exactly 1.0x. Middle tiers land in between according to
// their actual L2 size, so a medium core's memory-system counters are no
// longer big-like. Tiers without a declared L2 fall back to out-of-order
// strength interpolation between the same endpoints. A core's tier is
// fixed, so callers compute this once per core.
func (t Tier) L2MissMult() float64 {
	if t.L2KB <= 0 {
		return 1.8 - 0.8*mathx.Clamp(t.Uarch, 0, 1)
	}
	refKB := float64(TierBig.L2KB)
	spread := math.Log(refKB / float64(TierLittle.L2KB)) // 512 KiB -> 1.8x
	m := 1 + 0.8*(math.Log(refKB/float64(t.L2KB))/spread)
	return mathx.Clamp(m, 1.0, 2.5)
}

// CounterProfile is a WorkProfile prepared for counter synthesis: the
// clamped profile and its instructions per work unit. A thread's profile
// changes only at a task.Phase op, while its counters are sampled on every
// accrual, so the kernel prepares the profile once per change.
type CounterProfile struct {
	p           WorkProfile // clamped
	instPerWork float64
}

// PrepareCounters returns p prepared for Sample.
func PrepareCounters(p WorkProfile) CounterProfile {
	p = p.Clamp()
	return CounterProfile{p: p, instPerWork: p.InstPerWorkUnit()}
}

// Sample synthesises the counters a core with L2 miss multiplier l2Mult
// (its tier's L2MissMult) would report for a thread with this profile
// retiring `work` work units over `cycles` core cycles, with waitCycles
// spent quiesced. Noise makes repeated samples realistic without hiding the
// signal (counter readings on real PMUs are deterministic, but phase drift
// within an interval is not). The memory-system counters scale with the
// tier's cache sizes; the anchor tiers reproduce the two-tier model
// bit-for-bit.
//
// The order of the RNG draws and of every floating-point operation is part
// of the determinism contract: golden schedules depend on the exact bits.
// A counter whose base is not positive is zero and takes no draw.
func (cp *CounterProfile) Sample(rng *mathx.RNG, l2Mult, work, cycles, waitCycles float64) (v Vec) {
	if work <= 0 {
		v[CtrCycles] = cycles
		v[CtrQuiesceCycles] = waitCycles
		return v
	}
	p := &cp.p
	insts := work * cp.instPerWork
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
	if l2Mult != 1 { // smaller L2: more misses
		l2MissRate = mathx.Clamp(l2MissRate*l2Mult, 0, 0.95)
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
