package colab

import (
	"colab/internal/sim"
	"colab/internal/task"
)

// Behaviour tests vary the fixed fairness window and governor hold through
// these hooks (call them before the machine starts the pipeline) and read
// the labeler's state through Labels and TargetTiers.

// SetFairnessWindow overrides the selector's blame-priority bound.
func (s *SelectorStage) SetFairnessWindow(w sim.Time) { s.fairnessWindow = w }

// FairnessWindow reports the selector's blame-priority bound.
func (s *SelectorStage) FairnessWindow() sim.Time { return s.fairnessWindow }

// SetHold overrides the governor's downshift residency.
func (g *GovernorStage) SetHold(h sim.Time) { g.hold = h }

// Labels returns a snapshot of the labeler's current label of every live
// thread.
func (l *LabelerStage) Labels() map[*task.Thread]Label {
	out := make(map[*task.Thread]Label, len(l.threads))
	for t := range l.threads {
		out[t] = Label(l.pc.Hints().Get(t).Label)
	}
	return out
}

// TargetTiers returns a snapshot of every live thread's allocation target
// tier (-1 = free).
func (l *LabelerStage) TargetTiers() map[*task.Thread]int {
	out := make(map[*task.Thread]int, len(l.threads))
	for t := range l.threads {
		out[t] = l.pc.Hints().Get(t).TargetTier
	}
	return out
}
