// Package colab implements the paper's contribution: a collaborative
// multi-factor scheduler for asymmetric multicore processors (§3–4),
// generalised from the paper's two-kind big/little machines to arbitrary
// ordered core tiers.
//
// Three collaborating heuristics, each primarily owning one factor:
//
//   - A multi-factor labeler runs every 10 ms and tags ready threads from
//     the runtime models (predicted speedup, futex blocking blame):
//     high-speedup threads get top-tier priority, low-speedup &
//     low-blocking threads get base-tier priority. On machines with middle
//     tiers, non-critical middle-band threads are spread over the middle
//     tiers by predicted speedup; the rest stay free.
//   - The hierarchical round-robin core allocator (Alg. 1,
//     _core_alloctor_) places waking threads by label: round-robin within
//     the labelled tier's cluster, or across all cores for free threads —
//     keeping every cluster loaded without migration churn.
//   - The tier-ranked global thread selector (Alg. 1, _thread_selector_)
//     always runs the most blocking (most critical) thread: local queue
//     first, then the same-tier cluster, then the remaining tiers from the
//     top of the machine down; an empty core may even pull a thread
//     running on any lower-tier core. Lower tiers never preempt higher
//     ones.
//
// Fairness comes from speedup-scaled slices: on upper-tier cores vruntime
// advances multiplied by the tier-relative predicted speedup, so threads
// are charged for work received rather than wall time and selection
// triggers proportionally more often on fast cores (the paper's
// scale-slice equal-progress mechanism).
//
// The decomposition is literal: the package exports the three heuristics
// (plus the tri-gear DVFS governor) as pipeline stages — LabelerStage,
// AllocatorStage, SelectorStage, GovernorStage — coupled only through the
// pipeline hint board, so each can be swapped against another policy's
// stage (the paper's ablation story, now expressible in the public API).
// The policy registry (internal/policy) builds every COLAB policy as a
// composition of these stages: "colab" is labeler+allocator+selector,
// "colab-dvfs" adds the governor and per-tier predictions, and the
// DESIGN.md §4 ablations are stage variants built with one mechanism
// switched off (NewAllocator's flat flag, NewSelector's Features) or with
// the ground-truth predictor (colab-oracle.labeler).
package colab

import (
	"colab/internal/cpu"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
)

// Label is the core-allocation tag the labeler assigns (§3.2).
type Label int

const (
	// LabelFree threads balance load across all clusters.
	LabelFree Label = iota
	// LabelBig marks high-predicted-speedup threads: top-tier priority.
	LabelBig
	// LabelLittle marks low-speedup, low-blocking (non-critical) threads:
	// base-tier priority.
	LabelLittle
	// LabelMid marks middle-band threads steered to a middle tier
	// (machines with three or more tiers only).
	LabelMid
)

// String names the label.
func (l Label) String() string {
	switch l {
	case LabelBig:
		return "big"
	case LabelLittle:
		return "little"
	case LabelMid:
		return "mid"
	default:
		return "free"
	}
}

// The fixed parameters of the paper's COLAB configuration. The labeling
// period is the pipeline's kernel.LabelInterval; the slice layer under the
// selector is CFS's (cfs.TargetLatency, cfs.MinGranularity,
// cfs.WakeupGranularity).
const (
	// highSpeedupZ sets the high-speedup threshold at mean + z*std of the
	// current ready-thread speedup distribution.
	highSpeedupZ float64 = 0.5
	// blameDecay is the EWMA retention of per-interval blocking blame.
	blameDecay float64 = 0.5
	// fairnessWindow bounds how far (in scaled vruntime) blame priority may
	// push a thread ahead of its fair share before selection reverts to
	// pure vruntime order.
	fairnessWindow = 4 * cfs.TargetLatency
	// governorHold is the minimum residency at an operating point before
	// the governor lowers a core's frequency by one step (upshifts are
	// immediate).
	governorHold = 2 * sim.Millisecond
)

// paletteMatches reports whether the machine's palette is the one a tiered
// predictor was trained for, on the fields prediction semantics depend on.
func paletteMatches(trained, machine []cpu.Tier) bool {
	if len(trained) != len(machine) {
		return false
	}
	for i := range trained {
		a, b := trained[i], machine[i]
		if a.Name != b.Name || a.FreqMHz != b.FreqMHz || a.Uarch != b.Uarch ||
			a.Capacity != b.Capacity || a.MinSpeedup != b.MinSpeedup || a.MaxSpeedup != b.MaxSpeedup {
			return false
		}
	}
	return true
}

// middleTier linearly maps a prediction inside [low, high) onto the middle
// tier indices 1..nt-2.
func middleTier(nt int, pred, low, high float64) int {
	span := high - low
	if span <= 0 {
		return 1
	}
	idx := 1 + int(float64(nt-2)*(pred-low)/span)
	if idx < 1 {
		idx = 1
	}
	if idx > nt-2 {
		idx = nt - 2
	}
	return idx
}
