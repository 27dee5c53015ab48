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
	// COLABDVFS adds the DVFS governor and per-tier trained predictions.
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
// sweeps of speedup-blind policies. It answers from the stages of the
// name's canonical composition (a built-in name through
// CanonicalComposition): only the wash, colab and colab-dvfs labelers read
// a predictor. User-registered policies and stages, and names that do not
// parse, conservatively report true. It is the fact New marks pipelines
// by: a scheduler New builds for a name reported false starts its runs
// without counter synthesis (kernel.MarkPredictorBlind), as only a
// speedup predictor reads counters.
func NeedsSpeedup(name string) bool {
	comp := Canonical(name)
	if c, ok := CanonicalComposition(comp); ok {
		comp = c
	} else if registered(comp) {
		return true // a user policy
	}
	stages, err := parsePipeline(comp)
	if err != nil {
		return true // no policy name at all
	}
	return !blind(stages)
}

// blindStages holds every built-in stage ("<name>.<slot>") that reads no
// speedup predictor: all but the wash, colab and colab-dvfs labelers.
var blindStages = map[string]bool{}

// blind reports whether every stage of a parsed composition is in
// blindStages.
func blind(stages map[Slot]string) bool {
	for slot, stage := range stages {
		if !blindStages[stage+"."+string(slot)] {
			return false
		}
	}
	return true
}

// builtins is the one definition of every built-in policy: each name
// builds its composition, through the same path as a composition-grammar
// name, into a pipeline named after the policy. The COLAB ablations
// (DESIGN.md §4) are stage variants: one mechanism switched off inside a
// stage, or the ground-truth predictor.
var builtins = map[string]string{
	Linux:        "linux.allocator+linux.selector",
	WASH:         "wash.labeler+linux.allocator+linux.selector",
	GTS:          "gts.labeler+linux.allocator+linux.selector",
	EAS:          "eas.labeler+eas.allocator+eas.selector+eas.governor",
	COLAB:        "colab.labeler+colab.allocator+colab.selector",
	COLABDVFS:    "colab-dvfs.labeler+colab.allocator+colab.selector+colab.governor",
	COLABNoScale: "colab.labeler+colab.allocator+colab-noscale.selector",
	COLABLocal:   "colab.labeler+colab.allocator+colab-local.selector",
	COLABFlat:    "colab.labeler+colab-flat.allocator+colab.selector",
	COLABNoPull:  "colab.labeler+colab.allocator+colab-nopull.selector",
	COLABOracle:  "colab-oracle.labeler+colab.allocator+colab.selector",
}

// CanonicalComposition returns the composition a built-in policy name
// builds, or false for other names. The two schedule alike, except that
// the colab-dvfs name alone fills a missing tiered predictor
// (withTriGearModel).
func CanonicalComposition(name string) (string, bool) {
	comp, ok := builtins[name]
	return comp, ok
}

func init() {
	registerBuiltinStages()
	for slot, names := range stageFactories {
		for name := range names {
			blindStages[name+"."+string(slot)] = true
		}
	}
	for _, name := range []string{WASH, COLAB, COLABDVFS} {
		delete(blindStages, name+"."+string(SlotLabeler))
	}
	for name, comp := range builtins {
		build, err := compile(name, comp)
		if err != nil {
			panic(err)
		}
		if name == COLABDVFS {
			build = withTriGearModel(build)
		}
		MustRegister(name, build)
	}
}

// withTriGearModel is the one per-name rule: the colab-dvfs policy uses
// the default tri-gear tiered model when the context carries no tiered
// predictor. The palette lets the labeler disable per-tier predictions on
// machines the model was not trained for (e.g. the two-tier paper
// configs) instead of mispredicting through wrong tier indices.
func withTriGearModel(build Factory) Factory {
	return func(ctx Context) (kernel.Scheduler, error) {
		if ctx.TierSpeedup == nil {
			tm, err := perfmodel.DefaultTriGear()
			if err != nil {
				return nil, fmt.Errorf("training tri-gear tiered model: %w", err)
			}
			ctx.TierSpeedup, ctx.TierSpeedupTiers = tm.TierPredictor(), tm.Tiers
		}
		return build(ctx)
	}
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
	// Plain colab.labeler always interpolates the big-anchor prediction
	// across upper tiers; per-tier predictions are the dvfs variant's
	// feature, carried by colab-dvfs.labeler. The ablation variants each
	// switch one mechanism off (colab-oracle.labeler swaps in the
	// ground-truth predictor instead).
	MustRegisterStage(SlotLabeler, COLAB, func(ctx Context) (kernel.Stage, error) {
		return colab.NewLabeler(ctx.Speedup, nil, nil), nil
	})
	MustRegisterStage(SlotLabeler, COLABDVFS, func(ctx Context) (kernel.Stage, error) {
		return colab.NewLabeler(ctx.Speedup, ctx.TierSpeedup, ctx.TierSpeedupTiers), nil
	})
	MustRegisterStage(SlotLabeler, COLABOracle, func(Context) (kernel.Stage, error) {
		return colab.NewLabeler(perfmodel.Oracle(), nil, nil), nil
	})
	for name, flat := range map[string]bool{COLAB: false, COLABFlat: true} {
		MustRegisterStage(SlotAllocator, name, func(Context) (kernel.Stage, error) {
			return colab.NewAllocator(flat), nil
		})
	}
	for name, off := range map[string]colab.Features{
		COLAB:        0,
		COLABNoScale: colab.ScaleSlice,
		COLABLocal:   colab.Steal | colab.Pull,
		COLABNoPull:  colab.Pull,
	} {
		MustRegisterStage(SlotSelector, name, func(Context) (kernel.Stage, error) {
			return colab.NewSelector(off), nil
		})
	}
	MustRegisterStage(SlotGovernor, COLAB, func(Context) (kernel.Stage, error) {
		return colab.NewGovernor(), nil
	})
}
