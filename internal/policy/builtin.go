package policy

import (
	"fmt"

	"colab/internal/kernel"
	"colab/internal/perfmodel"
	"colab/internal/sched/cfs"
	"colab/internal/sched/colab"
	"colab/internal/sched/eas"
	"colab/internal/sched/gts"
	"colab/internal/sched/wash"
)

// Built-in policy names. These are the only names the repo itself
// hard-codes; everything else (flag help, unknown-name errors, experiment
// kind lists) derives from the registry.
const (
	Linux = "linux"
	WASH  = "wash"
	COLAB = "colab"
	GTS   = "gts"
	EAS   = "eas"
	// COLABDVFS is COLAB with its native DVFS governor and per-tier trained
	// speedup models (tri-gear extension; identical to COLAB on
	// fixed-frequency machines apart from the per-tier predictions).
	COLABDVFS = "colab-dvfs"
	// Ablation variants of COLAB (DESIGN.md §4).
	COLABNoScale = "colab-noscale" // scale-slice fairness off
	COLABLocal   = "colab-local"   // biased-global selector off
	COLABFlat    = "colab-flat"    // hierarchical allocator off
	COLABNoPull  = "colab-nopull"  // big-pulls-little off
	COLABOracle  = "colab-oracle"  // ground-truth speedup predictor
)

// NeedsSpeedup reports whether the named policy's factory consumes
// Context.Speedup, letting batch drivers skip training the model for
// sweeps of speedup-blind policies. Unknown (user-registered) policies
// conservatively report true.
func NeedsSpeedup(name string) bool {
	switch name {
	case Linux, GTS, EAS, COLABOracle:
		return false
	}
	return true
}

func init() {
	MustRegister(Linux, func(Context) (kernel.Scheduler, error) {
		return cfs.New(), nil
	})
	MustRegister(WASH, func(ctx Context) (kernel.Scheduler, error) {
		return wash.New(ctx.Speedup), nil
	})
	MustRegister(COLAB, func(ctx Context) (kernel.Scheduler, error) {
		return colab.New(colab.Options{Speedup: ctx.Speedup}), nil
	})
	MustRegister(GTS, func(Context) (kernel.Scheduler, error) {
		return gts.New(), nil
	})
	MustRegister(EAS, func(Context) (kernel.Scheduler, error) {
		return eas.New(), nil
	})
	MustRegister(COLABDVFS, func(ctx Context) (kernel.Scheduler, error) {
		o := colab.Options{Speedup: ctx.Speedup, Governor: true}
		if ctx.TierSpeedup != nil {
			o.TierSpeedup, o.TierSpeedupTiers = ctx.TierSpeedup, ctx.TierSpeedupTiers
		} else {
			tm, err := perfmodel.DefaultTriGear()
			if err != nil {
				return nil, fmt.Errorf("training tri-gear tiered model: %w", err)
			}
			// The palette lets the policy disable per-tier predictions on
			// machines the model was not trained for (e.g. the two-tier
			// paper configs) instead of mispredicting through wrong tier
			// indices.
			o.TierSpeedup, o.TierSpeedupTiers = tm.TierPredictor(), tm.Tiers
		}
		return colab.New(o), nil
	})
	MustRegister(COLABNoScale, func(ctx Context) (kernel.Scheduler, error) {
		return colab.New(colab.Options{Speedup: ctx.Speedup, DisableScaleSlice: true}), nil
	})
	MustRegister(COLABLocal, func(ctx Context) (kernel.Scheduler, error) {
		return colab.New(colab.Options{Speedup: ctx.Speedup, LocalOnlySelector: true}), nil
	})
	MustRegister(COLABFlat, func(ctx Context) (kernel.Scheduler, error) {
		return colab.New(colab.Options{Speedup: ctx.Speedup, FlatAllocator: true}), nil
	})
	MustRegister(COLABNoPull, func(ctx Context) (kernel.Scheduler, error) {
		return colab.New(colab.Options{Speedup: ctx.Speedup, DisablePull: true}), nil
	})
	MustRegister(COLABOracle, func(Context) (kernel.Scheduler, error) {
		return colab.New(colab.Options{Speedup: perfmodel.Oracle()}), nil
	})

	registerBuiltinStages()
}

// registerBuiltinStages populates the stage level of the registry with the
// decomposed built-ins. WASH and GTS are labeler-only policies — their
// allocator/selector really are CFS — so those slots alias the CFS stages,
// letting compositions like "colab.labeler+wash.selector" read naturally.
func registerBuiltinStages() {
	cfsAllocator := func(Context) (kernel.Stage, error) {
		return cfs.NewAllocator(), nil
	}
	cfsSelector := func(Context) (kernel.Stage, error) {
		return cfs.NewSelector(), nil
	}
	for _, name := range []string{Linux, WASH, GTS} {
		MustRegisterStage(SlotAllocator, name, cfsAllocator)
		MustRegisterStage(SlotSelector, name, cfsSelector)
	}
	MustRegisterStage(SlotLabeler, WASH, func(ctx Context) (kernel.Stage, error) {
		return wash.NewLabeler(ctx.Speedup), nil
	})
	MustRegisterStage(SlotLabeler, GTS, func(Context) (kernel.Stage, error) {
		return gts.NewLabeler(), nil
	})
	MustRegisterStage(SlotLabeler, EAS, func(Context) (kernel.Stage, error) {
		return eas.NewLabeler(), nil
	})
	MustRegisterStage(SlotAllocator, EAS, func(Context) (kernel.Stage, error) {
		return eas.NewAllocator(), nil
	})
	MustRegisterStage(SlotSelector, EAS, func(Context) (kernel.Stage, error) {
		return eas.NewSelector(), nil
	})
	MustRegisterStage(SlotGovernor, EAS, func(Context) (kernel.Stage, error) {
		return eas.NewGovernor(), nil
	})
	// Plain colab.labeler keeps the "colab" policy's semantics exactly:
	// upper-tier scaling interpolates the big-anchor prediction, never the
	// per-tier trained model — per-tier predictions are the dvfs variant's
	// feature, carried by the separate colab-dvfs.labeler below. This keeps
	// the canonical composition byte-identical to the "colab" policy under
	// every context, tiered or not.
	MustRegisterStage(SlotLabeler, COLAB, func(ctx Context) (kernel.Stage, error) {
		return colab.NewLabeler(colab.Options{Speedup: ctx.Speedup}), nil
	})
	MustRegisterStage(SlotLabeler, COLABDVFS, func(ctx Context) (kernel.Stage, error) {
		return colab.NewLabeler(colab.Options{
			Speedup:          ctx.Speedup,
			TierSpeedup:      ctx.TierSpeedup,
			TierSpeedupTiers: ctx.TierSpeedupTiers,
		}), nil
	})
	MustRegisterStage(SlotAllocator, COLAB, func(Context) (kernel.Stage, error) {
		return colab.NewAllocator(colab.Options{}), nil
	})
	MustRegisterStage(SlotSelector, COLAB, func(Context) (kernel.Stage, error) {
		return colab.NewSelector(colab.Options{}), nil
	})
	// The registry's colab.governor is built active (Options.Governor on):
	// composing it into a pipeline means asking for label-driven DVFS.
	MustRegisterStage(SlotGovernor, COLAB, func(Context) (kernel.Stage, error) {
		return colab.NewGovernor(colab.Options{Governor: true}), nil
	})
}
