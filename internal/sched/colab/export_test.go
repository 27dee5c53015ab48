package colab

import (
	"colab/internal/sim"
	"colab/internal/task"
)

// Behaviour tests vary the fixed fairness window and governor hold through
// these hooks (call them before the machine starts the policy) and read the
// labeler's state through Labels and TargetTiers.

// SetFairnessWindow overrides the selector's blame-priority bound.
func (p *Policy) SetFairnessWindow(w sim.Time) { p.sel.fairnessWindow = w }

// SetGovernorHold overrides the governor's downshift residency.
func (p *Policy) SetGovernorHold(h sim.Time) { p.gov.hold = h }

// Labels returns a snapshot of the labeler's current label of every live
// thread.
func (p *Policy) Labels() map[*task.Thread]Label {
	out := make(map[*task.Thread]Label, len(p.lab.threads))
	for t := range p.lab.threads {
		out[t] = Label(p.lab.pc.Hints().Get(t).Label)
	}
	return out
}

// TargetTiers returns a snapshot of every live thread's allocation target
// tier (-1 = free).
func (p *Policy) TargetTiers() map[*task.Thread]int {
	out := make(map[*task.Thread]int, len(p.lab.threads))
	for t := range p.lab.threads {
		out[t] = p.lab.pc.Hints().Get(t).TargetTier
	}
	return out
}
