// Package gts implements an ARM Global Task Scheduling–like policy
// (big.LITTLE MP, Table 1 row "ARM [11]"): thread affinity follows each
// thread's tracked load average — busy threads up-migrate towards faster
// tiers, mostly-waiting threads down-migrate towards slower tiers — with
// hysteresis thresholds. On multi-tier machines (DynamIQ-style) migration
// moves one tier at a time, exactly as the stepwise up/down thresholds of
// the real governor behave. No bottleneck awareness, no asymmetric
// fairness. It exists as the extension comparison point the paper discusses
// qualitatively (§2).
//
// In pipeline terms GTS is a single stage: LabelerStage ("gts.labeler").
// The registry composes it with the CFS allocator and selector stages as
// the "gts" policy, and aliases "gts.allocator" and "gts.selector" to the
// CFS stages.
package gts

import (
	"colab/internal/kernel"
	"colab/internal/sim"
	"colab/internal/task"
)

// The GTS load-tracking parameters.
const (
	// upThreshold and downThreshold bound the hysteresis band on the
	// runnable-fraction load average.
	upThreshold   float64 = 0.75
	downThreshold float64 = 0.35
	// loadDecay is the EWMA retention of the per-interval load.
	loadDecay float64 = 0.5
)

type info struct {
	load     float64
	lastExec sim.Time
	lastRdy  sim.Time
	tier     int // current placement tier (affinity ladder rung)
}

// LabelerStage is the GTS load-average affinity ladder as a pipeline stage.
// It publishes each thread's ladder rung (TargetTier) and load (Util) as
// hints for downstream stages in hybrid pipelines.
type LabelerStage struct {
	pc   *kernel.PipelineContext
	info []info // load-tracking state, indexed by thread ID

	// tierMask[k] is the affinity mask of tier k's cores (the machine's
	// TierMask); unpopulated tiers borrow the nearest populated tier's
	// mask (below first, then above), so symmetric machines degenerate to
	// a single rung.
	tierMask []task.Mask
	topTier  int
}

// NewLabeler returns the GTS labeler stage.
func NewLabeler() *LabelerStage { return &LabelerStage{} }

// Name implements kernel.Stage.
func (l *LabelerStage) Name() string { return "gts.labeler" }

// Start implements kernel.Stage. Threads boot heavy on the fastest tier
// with full affinity (GTS's optimistic start).
func (l *LabelerStage) Start(pc *kernel.PipelineContext) {
	l.pc = pc
	m := pc.Machine()
	l.topTier = m.NumTiers() - 1
	threads := m.Workload().Threads()
	l.info = make([]info, len(threads))
	for _, t := range threads {
		l.info[t.ID] = info{load: 1, tier: l.topTier}
		t.Affinity = task.MaskAll()
	}
	l.tierMask = make([]task.Mask, m.NumTiers())
	for tier := range l.tierMask {
		l.tierMask[tier] = m.TierMask(tier)
	}
	for tier := range l.tierMask {
		if l.tierMask[tier].IsEmpty() {
			l.tierMask[tier] = l.nearestMask(tier)
		}
	}
}

// nearestMask finds the mask of the nearest populated tier, preferring
// lower tiers (down-migration is always safe).
func (l *LabelerStage) nearestMask(tier int) task.Mask {
	for d := 1; d <= l.topTier; d++ {
		if lo := tier - d; lo >= 0 && !l.tierMask[lo].IsEmpty() {
			return l.tierMask[lo]
		}
		if hi := tier + d; hi <= l.topTier && !l.tierMask[hi].IsEmpty() {
			return l.tierMask[hi]
		}
	}
	return task.MaskAll()
}

// Label implements kernel.Labeler: the periodic load-sampling pass.
func (l *LabelerStage) Label(threads []*task.Thread) {
	const wall = float64(kernel.LabelInterval)
	for _, t := range threads {
		in := &l.info[t.ID]
		running := float64(t.SumExec - in.lastExec)
		ready := float64(t.ReadyTime - in.lastRdy)
		in.lastExec = t.SumExec
		in.lastRdy = t.ReadyTime
		inst := (running + ready) / wall
		if inst > 1 {
			inst = 1
		}
		in.load = loadDecay*in.load + (1-loadDecay)*inst
		switch {
		case in.tier < l.topTier && in.load > upThreshold:
			in.tier++
		case in.tier > 0 && in.load < downThreshold:
			in.tier--
		}
		h := l.pc.Hints().Get(t)
		h.TargetTier, h.Util = in.tier, in.load
		mask := l.tierMask[in.tier]
		if !t.Affinity.Equal(mask) {
			t.Affinity = mask
			l.pc.Requeue(t)
		}
	}
}

var _ kernel.Labeler = (*LabelerStage)(nil)
