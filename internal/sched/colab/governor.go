package colab

import (
	"colab/internal/kernel"
	"colab/internal/sim"
	"colab/internal/task"
)

// The COLAB-native DVFS governor (tri-gear extension). Where EAS programs
// frequency from tracked utilisation, COLAB already knows *why* a thread
// matters — the labeler's multi-factor criticality tags — so the governor
// maps labels straight onto operating points:
//
//   - big / free threads hold the top OPP: high-speedup threads convert
//     frequency into progress, and free threads include the high-blame
//     bottlenecks whose waiters the whole mix is stalled on;
//   - little-labelled threads (low predicted speedup AND low blocking
//     blame) are capped at the ladder's middle step: memory-bound work
//     gains little from clock and nobody is waiting for it, so the
//     cube-law dynamic power is mostly waste — but capping all the way to
//     the bottom stretches saturated mixes' makespan enough to lose the
//     EDP it saved, so the cap stops halfway;
//   - mid-labelled threads run one step below nominal, the cluster's
//     efficiency point.
//
// Two guards keep the governor honest: a thread that released futex
// waiters since the last labeling pass is boosted regardless of its label
// (criticality moves faster than the 10 ms labeler in sync-heavy mixes),
// and downshifts walk the ladder one step per governorHold so a single
// mislabelled interval cannot park a core low. Upshifts apply immediately —
// a bottleneck must never wait on the governor.
//
// As a pipeline stage ("colab.governor") the decision rules read the
// labeler's published hints, so the governor composes with any labeler
// that tags threads COLAB-style — and degrades to full speed (free label,
// no fresh blame) under labelers that do not.

// OPPForLabel maps a labeler tag onto the operating-point index the
// governor requests on a ladder of numOPPs ascending frequencies.
func OPPForLabel(l Label, numOPPs int) int {
	if numOPPs <= 1 {
		return 0
	}
	switch l {
	case LabelLittle:
		return (numOPPs - 1) / 2
	case LabelMid:
		return numOPPs - 2
	default: // LabelBig and LabelFree: full speed
		return numOPPs - 1
	}
}

// GovernorStage is the label-driven COLAB governor as a pipeline stage
// ("colab.governor"). Pipelines without it keep every core at nominal,
// which is fixed-frequency COLAB (the "colab" policy).
type GovernorStage struct {
	// hold is the downshift residency (governorHold; behaviour tests vary
	// it).
	hold sim.Time
	pc   *kernel.PipelineContext
	// govSince[coreID] is when the governor last changed that core's
	// operating point (downshift hysteresis).
	govSince []sim.Time
}

// NewGovernor returns the COLAB governor stage.
func NewGovernor() *GovernorStage {
	return &GovernorStage{hold: governorHold}
}

// Name implements kernel.Stage.
func (g *GovernorStage) Name() string { return "colab.governor" }

// Start implements kernel.Stage.
func (g *GovernorStage) Start(pc *kernel.PipelineContext) {
	g.pc = pc
	g.govSince = make([]sim.Time, len(pc.Machine().Cores()))
}

// SelectOPP implements kernel.Governor.
func (g *GovernorStage) SelectOPP(c *kernel.Core, t *task.Thread) int {
	cur := c.OPP()
	h := g.pc.Hints().Get(t)
	want := OPPForLabel(Label(h.Label), c.NumOPPs())
	// Blame is only folded into labels every interval, but criticality moves
	// faster than that in sync-heavy mixes: a thread that released waiters
	// since the last labeling pass holds a contended resource right now and
	// must not run derated, whatever its label says.
	if t.BlockBlame > h.LastBlame {
		want = c.NumOPPs() - 1
	}
	now := g.pc.Machine().Now()
	switch {
	case want > cur:
		g.govSince[c.ID] = now
		return want
	case want < cur:
		if now-g.govSince[c.ID] < g.hold {
			return cur // hysteresis: hold before stepping down
		}
		g.govSince[c.ID] = now
		return cur - 1
	}
	return cur
}

var _ kernel.Governor = (*GovernorStage)(nil)
