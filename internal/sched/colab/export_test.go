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
// (admitted, unretired) thread.
func (l *LabelerStage) Labels() map[*task.Thread]Label {
	out := make(map[*task.Thread]Label)
	for _, t := range l.live() {
		out[t] = Label(l.pc.Hints().Get(t).Label)
	}
	return out
}

// TargetTiers returns a snapshot of every live thread's allocation target
// tier (-1 = free).
func (l *LabelerStage) TargetTiers() map[*task.Thread]int {
	out := make(map[*task.Thread]int)
	for _, t := range l.live() {
		out[t] = l.pc.Hints().Get(t).TargetTier
	}
	return out
}

// live lists the machine's admitted, unretired threads: the pipeline, not
// the labeler, tracks them.
func (l *LabelerStage) live() []*task.Thread {
	var out []*task.Thread
	for _, t := range l.pc.Machine().Workload().Threads() {
		if t.State != task.New && t.State != task.Done {
			out = append(out, t)
		}
	}
	return out
}
