// Package eas implements a Linux Energy-Aware-Scheduling-like policy, the
// modern mainline answer to asymmetric placement and a natural extra
// comparison point for the energy extension. On wake-up it packs work onto
// the cheapest tier that still has spare capacity — slower tiers cost less
// energy per unit of work, so they fill first; load spills up the tier
// ladder only when the cheap clusters saturate or the thread's tracked
// utilisation does not fit them. Below placement it is plain CFS.
//
// On machines whose tiers expose DVFS ladders the policy doubles as a
// schedutil-like frequency governor: at each dispatch it programs the
// lowest operating point whose capacity covers the incoming thread's
// utilisation plus headroom, trading performance for energy exactly as
// mainline EAS + schedutil do. Fixed-frequency machines (the paper's gem5
// setup) never invoke the governor.
//
// EAS optimises energy, not bottlenecks or asymmetric fairness (Table 1
// has no row for it; it post-dates the paper) — expect lower energy than
// CFS on light load and weaker turnaround than COLAB on contended mixes.
//
// In pipeline terms EAS decomposes into all four stages: a utilisation-
// sampling labeler ("eas.labeler", publishes Hint.Util), an energy-aware
// wake-up allocator ("eas.allocator"), an up-migration-suppressing selector
// ("eas.selector") and the schedutil-like governor ("eas.governor"). The
// registry's "eas" policy is the composition of all four.
package eas

import (
	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
)

// The EAS placement and governor parameters.
const (
	// littleCapacity is the utilisation above which a thread no longer
	// "fits" a base-tier core and is up-placed (EAS's fits_capacity rule,
	// expressed as a runnable-time fraction). Middle tiers interpolate
	// their fit threshold between this value and 1 by relative capacity.
	// It is typed so 1-littleCapacity equals the float64 subtraction
	// (0.19999999999999996); an untyped 0.8 would fold to exactly 0.2.
	littleCapacity float64 = 0.8
	// loadDecay is the EWMA retention of per-interval utilisation.
	loadDecay float64 = 0.5
	// freqHeadroom is the schedutil margin the DVFS governor keeps above
	// the tracked utilisation when picking an operating point (mainline
	// uses 1.25).
	freqHeadroom float64 = 1.25
)

// utilOf reads a thread's tracked utilisation from the hint board; unknown
// threads report the modest-start default.
func utilOf(pc *kernel.PipelineContext, t *task.Thread) float64 {
	return pc.Hints().Get(t).Util
}

// fitThresholds computes, per tier, the utilisation up to which a thread
// fits that tier: littleCapacity on the base tier, 1 on the top, linear
// interpolation by relative capacity in between.
func fitThresholds(tiers []cpu.Tier) []float64 {
	out := make([]float64, len(tiers))
	capLo := tiers[0].Capacity
	capHi := tiers[len(tiers)-1].Capacity
	for k, t := range tiers {
		switch {
		case k == len(tiers)-1 || capHi <= capLo:
			out[k] = 1 // the top tier fits everything
		case k == 0:
			out[k] = littleCapacity
		default:
			// Interpolate the fit threshold towards 1 as capacity
			// approaches the top tier's.
			frac := (capHi - t.Capacity) / (capHi - capLo)
			out[k] = 1 - (1-littleCapacity)*frac
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Labeler: utilisation sampling.

type info struct {
	lastExec sim.Time
	lastRdy  sim.Time
}

// LabelerStage samples every thread's runnable-time fraction each interval
// and publishes the EWMA as Hint.Util — the signal the EAS allocator and
// governor (and any hybrid pipeline) consume. New threads start at
// kernel.NeutralUtil, on the cheap tiers: the energy-first default.
type LabelerStage struct {
	pc   *kernel.PipelineContext
	info []info // sampling state, indexed by thread ID
}

// NewLabeler returns the EAS utilisation-sampling labeler stage.
func NewLabeler() *LabelerStage { return &LabelerStage{} }

// Name implements kernel.Stage.
func (l *LabelerStage) Name() string { return "eas.labeler" }

// Start implements kernel.Stage.
func (l *LabelerStage) Start(pc *kernel.PipelineContext) {
	l.pc = pc
	l.info = make([]info, pc.Machine().Workload().NumThreads())
}

// Label implements kernel.Labeler: the periodic utilisation-sampling pass.
func (l *LabelerStage) Label(threads []*task.Thread) {
	const wall = float64(kernel.LabelInterval)
	for _, t := range threads {
		in := &l.info[t.ID]
		inst := (float64(t.SumExec-in.lastExec) + float64(t.ReadyTime-in.lastRdy)) / wall
		in.lastExec = t.SumExec
		in.lastRdy = t.ReadyTime
		if inst > 1 {
			inst = 1
		}
		h := l.pc.Hints().Get(t)
		h.Util = loadDecay*h.Util + (1-loadDecay)*inst
	}
}

// ---------------------------------------------------------------------------
// Allocator: energy-aware wake-up placement.

// AllocatorStage implements the EAS wake-up placement. Candidate order:
// idle cores of the cheapest tier the thread fits, up the ladder (cheapest
// J per unit work first), then idle cores of the tiers it does not fit from
// the fastest down (closest to fitting first), then the least-loaded
// allowed core. Below core choice the placement rules are plain CFS.
type AllocatorStage struct {
	*cfs.AllocatorStage
	pc        *kernel.PipelineContext
	fitThresh []float64
}

// NewAllocator returns the EAS allocator stage.
func NewAllocator() *AllocatorStage {
	return &AllocatorStage{AllocatorStage: cfs.NewAllocator()}
}

// Name implements kernel.Stage.
func (a *AllocatorStage) Name() string { return "eas.allocator" }

// Start implements kernel.Stage.
func (a *AllocatorStage) Start(pc *kernel.PipelineContext) {
	a.AllocatorStage.Start(pc)
	a.pc = pc
	a.fitThresh = fitThresholds(pc.Machine().Tiers())
}

// Enqueue implements kernel.Allocator.
func (a *AllocatorStage) Enqueue(t *task.Thread, wakeup bool) int {
	core := a.pickCore(t)
	a.Place(t, core, wakeup)
	return core
}

func (a *AllocatorStage) pickCore(t *task.Thread) int {
	util := utilOf(a.pc, t)
	m := a.pc.Machine()
	q := a.pc.Queues()
	cores := m.Cores()
	scan := func(ids []int) int {
		for _, id := range ids {
			if t.AllowedOn(id) && cores[id].IsIdle() && q.Len(id) == 0 {
				return id
			}
		}
		return -1
	}
	// Pass 1: idle cores of fitting tiers, cheapest first.
	for tier := 0; tier < m.NumTiers(); tier++ {
		if util <= a.fitThresh[tier] {
			if id := scan(m.TierCoreIDs(tier)); id >= 0 {
				return id
			}
		}
	}
	// Oversized thread with no fitting core free: an idle slow core is
	// still better than queueing behind a busy fast one. Closest-to-
	// fitting (fastest) tiers first.
	for tier := m.NumTiers() - 1; tier >= 0; tier-- {
		if util > a.fitThresh[tier] {
			if id := scan(m.TierCoreIDs(tier)); id >= 0 {
				return id
			}
		}
	}
	// Pass 2: all busy — fall back to CFS least-loaded placement.
	return a.LeastLoadedAllowed(t)
}

// ---------------------------------------------------------------------------
// Selector: suppress up-migration while cheap clusters have headroom.

// SelectorStage implements the EAS selection rule. Base-tier cores behave
// exactly like CFS. Upper-tier cores serve their own cluster's queues but
// pull work from the cheaper tiers only when none of their cores is idle —
// EAS suppresses up-migration while the cheap clusters still have headroom.
type SelectorStage struct {
	*cfs.SelectorStage
	pc *kernel.PipelineContext
}

// NewSelector returns the EAS selector stage.
func NewSelector() *SelectorStage {
	return &SelectorStage{SelectorStage: cfs.NewSelector()}
}

// Name implements kernel.Stage.
func (s *SelectorStage) Name() string { return "eas.selector" }

// Start implements kernel.Stage.
func (s *SelectorStage) Start(pc *kernel.PipelineContext) {
	s.SelectorStage.Start(pc)
	s.pc = pc
}

// PickNext implements kernel.Selector.
func (s *SelectorStage) PickNext(c *kernel.Core) *task.Thread {
	if c.Kind == 0 {
		return s.SelectorStage.PickNext(c)
	}
	m := s.pc.Machine()
	if t := s.PopLocal(c.ID); t != nil {
		return t
	}
	if t := s.StealInto(c.ID, int(c.Kind)); t != nil {
		return t
	}
	for tier := 0; tier < int(c.Kind); tier++ {
		if m.NextIdle(tier, 0) >= 0 {
			return nil // an idle cheaper core will pick the queued work up
		}
	}
	for tier := int(c.Kind) - 1; tier >= 0; tier-- {
		if t := s.StealInto(c.ID, tier); t != nil {
			return t
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Governor: schedutil.

// GovernorStage is the schedutil-like DVFS stage: it programs the lowest
// operating point whose frequency covers the incoming thread's utilisation
// plus headroom at the tier's nominal capacity.
type GovernorStage struct {
	pc *kernel.PipelineContext
}

// NewGovernor returns the EAS governor stage.
func NewGovernor() *GovernorStage { return &GovernorStage{} }

// Name implements kernel.Stage.
func (g *GovernorStage) Name() string { return "eas.governor" }

// Start implements kernel.Stage.
func (g *GovernorStage) Start(pc *kernel.PipelineContext) { g.pc = pc }

// SelectOPP implements kernel.Governor.
func (g *GovernorStage) SelectOPP(c *kernel.Core, t *task.Thread) int {
	target := utilOf(g.pc, t) * freqHeadroom * float64(c.Tier.FreqMHz)
	ladder := c.Tier.Ladder()
	for i, f := range ladder {
		if float64(f) >= target {
			return i
		}
	}
	return len(ladder) - 1
}

var (
	_ kernel.Labeler   = (*LabelerStage)(nil)
	_ kernel.Allocator = (*AllocatorStage)(nil)
	_ kernel.Selector  = (*SelectorStage)(nil)
	_ kernel.Governor  = (*GovernorStage)(nil)
)
