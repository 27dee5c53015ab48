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
	"slices"

	"colab/internal/kernel"
	"colab/internal/sim"
	"colab/internal/task"
)

// The GTS load-tracking parameters.
const (
	// interval is the load-sampling period.
	interval = 10 * sim.Millisecond
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
	pc      *kernel.PipelineContext
	threads map[*task.Thread]*info
	lastAt  sim.Time

	// tierMask[k] is the affinity mask of tier k's cores; unpopulated
	// tiers borrow the nearest populated tier's mask (below first, then
	// above), so symmetric machines degenerate to a single rung.
	tierMask []task.Mask
	topTier  int

	// sampleFn is sample bound once in Start and order its reused
	// per-tick buffer, so a tick does not allocate.
	sampleFn func()
	order    []*task.Thread
}

// NewLabeler returns the GTS labeler stage.
func NewLabeler() *LabelerStage { return &LabelerStage{} }

// Name implements kernel.Stage.
func (l *LabelerStage) Name() string { return "gts.labeler" }

// Start implements kernel.Stage.
func (l *LabelerStage) Start(pc *kernel.PipelineContext) {
	l.pc = pc
	m := pc.Machine()
	l.threads = make(map[*task.Thread]*info)
	l.lastAt = 0
	l.topTier = m.NumTiers() - 1
	l.tierMask = make([]task.Mask, m.NumTiers())
	for tier := range l.tierMask {
		l.tierMask[tier] = task.MaskOf(m.TierCoreIDs(tier))
	}
	for tier := range l.tierMask {
		if l.tierMask[tier].IsEmpty() {
			l.tierMask[tier] = l.nearestMask(tier)
		}
	}
	l.sampleFn = l.sample
	m.Engine().After(interval, l.sampleFn)
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

// Admit implements kernel.Labeler.
func (l *LabelerStage) Admit(t *task.Thread) {
	// New threads start heavy (GTS boots threads on the fastest tier):
	// optimistic load.
	l.threads[t] = &info{load: 1, tier: l.topTier}
	t.Affinity = task.MaskAll()
}

// ThreadDone implements kernel.Labeler.
func (l *LabelerStage) ThreadDone(t *task.Thread) {
	delete(l.threads, t)
}

func (l *LabelerStage) sample() {
	m := l.pc.Machine()
	if m.Done() {
		return
	}
	defer m.Engine().After(interval, l.sampleFn)
	now := m.Now()
	wall := float64(now - l.lastAt)
	l.lastAt = now
	if wall <= 0 || len(l.threads) == 0 {
		return
	}
	// Iterate in thread-ID order: map order would randomise the affinity
	// re-queue sequence and break run-to-run determinism.
	threads := l.order[:0]
	for t := range l.threads {
		threads = append(threads, t)
	}
	slices.SortFunc(threads, task.ByID)
	l.order = threads
	for _, t := range threads {
		in := l.threads[t]
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
