package colab

import (
	"colab/internal/kernel"
	"colab/internal/policy"
	"colab/internal/sched/cfs"
)

// This file is the public policy-pipeline surface: schedulers as
// compositions of four first-class stages. The paper's core argument is
// that the multi-factor labeler, the core allocator and the thread
// selector must be decomposed and co-designed; here the decomposition is
// the API. Build pipelines three ways:
//
//   - by name, through the composition grammar accepted everywhere a
//     policy name is (WithPolicies, NewPolicy, colab-sim -sched, ...):
//
//     "colab.labeler+wash.selector+colab.governor"
//
//   - declaratively, from stage values (your own implementations or
//     registry-built ones via NewStage):
//
//     sched, err := colab.Pipeline{Labeler: myLabeler}.Scheduler()
//
//   - by registering custom stages (RegisterStage), which drops them into
//     the same grammar namespace as the built-ins.

// Pipeline stage interfaces and shared state, re-exported for stage
// authors.
type (
	// PipelineStage is the base contract of every stage (Name + Start).
	PipelineStage = kernel.Stage
	// Labeler is the periodic labeling stage: every 10 ms its Label gets
	// the live threads, refreshes runtime models and publishes per-thread
	// Hints (and may steer affinity through PipelineContext.Requeue).
	Labeler = kernel.Labeler
	// Allocator is the core-allocation stage (~ select_task_rq_fair).
	Allocator = kernel.Allocator
	// Selector is the thread-selection stage (~ pick_next_task_fair) plus
	// the fairness hooks tied to selection order.
	Selector = kernel.Selector
	// Governor is the per-dispatch DVFS stage.
	Governor = kernel.Governor
	// PipelineContext is the shared state stages operate on: the machine,
	// the per-core run queues, the hint board and the affinity requeue
	// hook.
	PipelineContext = kernel.PipelineContext
	// RunQueues is the pipeline's shared per-core ready-queue state.
	RunQueues = kernel.RunQueues
	// Hint is the per-thread blackboard entry labelers publish and other
	// stages read.
	Hint = kernel.Hint
	// HintBoard holds the live threads' hints.
	HintBoard = kernel.HintBoard
)

// StageSlot identifies a pipeline stage position in the stage registry and
// the composition grammar.
type StageSlot = policy.Slot

// The four pipeline slots.
const (
	SlotLabeler   = policy.SlotLabeler
	SlotAllocator = policy.SlotAllocator
	SlotSelector  = policy.SlotSelector
	SlotGovernor  = policy.SlotGovernor
)

// StageSlots returns the pipeline slots in pipeline order.
func StageSlots() []StageSlot { return policy.Slots() }

// StageFactory builds one stage instance from the shared context. The
// result must implement the slot's interface (Labeler, Allocator, Selector
// or Governor — checked when a pipeline is built from it).
type StageFactory = policy.StageFactory

// RegisterStage adds a user stage under (slot, name), making
// "<name>.<slot>" addressable in the composition grammar everywhere a
// policy name is accepted. It errors on an unknown slot, an invalid name,
// a nil factory, or a collision.
func RegisterStage(slot StageSlot, name string, f StageFactory) error {
	return policy.RegisterStage(slot, name, f)
}

// MustRegisterStage is RegisterStage for init-time use; it panics on error.
func MustRegisterStage(slot StageSlot, name string, f StageFactory) {
	policy.MustRegisterStage(slot, name, f)
}

// StageNames returns every registered stage name for the slot (built-in
// and user) in sorted order.
func StageNames(slot StageSlot) []string { return policy.StageNames(slot) }

// NewStage instantiates a registered stage by (slot, name) — the way to
// obtain built-in stage instances for a hand-assembled Pipeline. Unknown
// names error with the slot's registered-name list.
func NewStage(slot StageSlot, name string, ctx PolicyContext) (PipelineStage, error) {
	return policy.NewStage(slot, name, ctx)
}

// CanonicalComposition returns the composition a built-in policy name
// builds ("colab" -> "colab.labeler+colab.allocator+colab.selector",
// "colab-nopull" -> "colab.labeler+colab.allocator+colab-nopull.selector",
// ...), or false for other names. Each built-in is its composition, so the
// two schedule byte-identically (golden-corpus guarded) — except that the
// colab-dvfs policy fills a missing PolicyContext.TierSpeedup with the
// default tri-gear model, while its composition uses exactly the
// context's predictors.
func CanonicalComposition(name string) (string, bool) { return policy.CanonicalComposition(name) }

// Pipeline is a declarative stage composition. Allocator and Selector
// default to the CFS stages when nil (the mechanical scheduling base);
// Labeler and Governor are optional refinements. The zero Pipeline is
// therefore plain CFS.
type Pipeline struct {
	// Name labels the composed scheduler; empty derives one from the stage
	// names ("colab.labeler+linux.allocator+linux.selector").
	Name string
	// Labeler is the periodic labeling stage (nil: no labeling pass).
	Labeler Labeler
	// Allocator is the core-allocation stage (nil: CFS least-loaded).
	Allocator Allocator
	// Selector is the thread-selection stage (nil: CFS timeline).
	Selector Selector
	// Governor is the DVFS stage (nil: every core at nominal frequency).
	Governor Governor
}

// Scheduler composes the stages into a Scheduler ready for Run or a custom
// RegisterPolicy factory.
func (p Pipeline) Scheduler() (Scheduler, error) {
	alloc := p.Allocator
	if alloc == nil {
		alloc = cfs.NewAllocator()
	}
	sel := p.Selector
	if sel == nil {
		sel = cfs.NewSelector()
	}
	return kernel.NewPipeline(p.Name, p.Labeler, alloc, sel, p.Governor)
}
