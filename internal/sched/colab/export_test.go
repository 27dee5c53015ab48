package colab

import "colab/internal/sim"

// Behaviour tests vary the fixed fairness window and governor hold through
// these hooks. Call them before the machine starts the policy.

// SetFairnessWindow overrides the selector's blame-priority bound.
func (p *Policy) SetFairnessWindow(w sim.Time) { p.sel.fairnessWindow = w }

// SetGovernorHold overrides the governor's downshift residency.
func (p *Policy) SetGovernorHold(h sim.Time) { p.gov.hold = h }
