package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"colab/internal/kernel"
)

// The second registry level: individual pipeline stages. Where the policy
// registry maps one name to a whole kernel.Scheduler factory, the stage
// registry maps (slot, name) pairs to stage factories, and the composition
// grammar makes every stage combination addressable wherever a policy name
// is accepted:
//
//	"colab.labeler+wash.selector+colab.governor"
//
// Each "+"-separated part is "<name>.<slot>" with slot one of labeler,
// allocator, selector, governor; at most one stage per slot. Omitted
// allocator/selector slots default to the CFS stages ("linux"); omitted
// labeler/governor slots stay empty. A composition name is resolved lazily
// by New/Check when it is not shadowed by a registered whole-policy name.

// Slot identifies a pipeline stage position.
type Slot string

// The four pipeline slots.
const (
	SlotLabeler   Slot = "labeler"
	SlotAllocator Slot = "allocator"
	SlotSelector  Slot = "selector"
	SlotGovernor  Slot = "governor"
)

// Slots returns the pipeline slots in pipeline order.
func Slots() []Slot { return []Slot{SlotLabeler, SlotAllocator, SlotSelector, SlotGovernor} }

func validSlot(s Slot) bool {
	switch s {
	case SlotLabeler, SlotAllocator, SlotSelector, SlotGovernor:
		return true
	}
	return false
}

// DefaultStageFamily is the family filling omitted allocator/selector
// slots: plain CFS mechanics.
const DefaultStageFamily = "linux"

// StageFactory builds one stage instance from the shared context. The
// returned stage must implement the slot's interface (kernel.Labeler,
// kernel.Allocator, kernel.Selector or kernel.Governor); this is checked at
// pipeline build time. Factories must return a fresh instance per call:
// stage state is per-machine.
type StageFactory func(Context) (kernel.Stage, error)

var (
	stageMu        sync.RWMutex
	stageFactories = map[Slot]map[string]StageFactory{
		SlotLabeler:   {},
		SlotAllocator: {},
		SlotSelector:  {},
		SlotGovernor:  {},
	}
)

// RegisterStage adds a stage under (slot, name), making "<name>.<slot>"
// addressable in the composition grammar. It errors on an unknown slot, an
// empty or grammar-ambiguous name, a nil factory, or a collision.
func RegisterStage(slot Slot, name string, f StageFactory) error {
	if !validSlot(slot) {
		return fmt.Errorf("policy: unknown stage slot %q (slots: %s)", slot, slotList())
	}
	if name == "" {
		return fmt.Errorf("policy: empty stage name for slot %s", slot)
	}
	if strings.ContainsAny(name, ".+ \t") {
		return fmt.Errorf("policy: stage name %q may not contain '.', '+' or spaces (composition grammar)", name)
	}
	if f == nil {
		return fmt.Errorf("policy: nil factory for stage %s.%s", name, slot)
	}
	stageMu.Lock()
	defer stageMu.Unlock()
	if _, dup := stageFactories[slot][name]; dup {
		return fmt.Errorf("policy: stage %s.%s already registered", name, slot)
	}
	stageFactories[slot][name] = f
	return nil
}

// MustRegisterStage is RegisterStage for init-time use; it panics on error.
func MustRegisterStage(slot Slot, name string, f StageFactory) {
	if err := RegisterStage(slot, name, f); err != nil {
		panic(err)
	}
}

// StageNames returns every registered stage name for the slot in sorted
// order (empty for an unknown slot).
func StageNames(slot Slot) []string {
	stageMu.RLock()
	defer stageMu.RUnlock()
	out := make([]string, 0, len(stageFactories[slot]))
	for name := range stageFactories[slot] {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// NewStage instantiates the registered (slot, name) stage. Unknown names
// error with the slot's full registered-name list.
func NewStage(slot Slot, name string, ctx Context) (kernel.Stage, error) {
	if !validSlot(slot) {
		return nil, fmt.Errorf("policy: unknown stage slot %q (slots: %s)", slot, slotList())
	}
	stageMu.RLock()
	f, ok := stageFactories[slot][name]
	stageMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("policy: unknown %s %q (registered %ss: %s)",
			slot, name, slot, strings.Join(StageNames(slot), ", "))
	}
	return stageRef{slot, name, f}.build(ctx)
}

// stageRef is one resolved stage of a composition; build instantiates it.
type stageRef struct {
	slot Slot
	name string
	f    StageFactory
}

func (r stageRef) build(ctx Context) (kernel.Stage, error) {
	s, err := r.f(ctx)
	if err != nil {
		return nil, fmt.Errorf("policy: building stage %s.%s: %w", r.name, r.slot, err)
	}
	if s == nil {
		return nil, fmt.Errorf("policy: factory for stage %s.%s returned nil", r.name, r.slot)
	}
	return s, nil
}

func slotList() string {
	var parts []string
	for _, s := range Slots() {
		parts = append(parts, string(s))
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------------
// Composition grammar.

// IsComposition reports whether name uses the pipeline-composition grammar
// (it contains a "+" join or ends in a ".slot" suffix). Such names resolve
// through the stage registry when no whole policy shadows them.
func IsComposition(name string) bool {
	if strings.Contains(name, "+") {
		return true
	}
	i := strings.LastIndex(name, ".")
	return i > 0 && validSlot(Slot(name[i+1:]))
}

// parsePipeline splits a composition name into its per-slot stage names,
// filling omitted allocator/selector slots with DefaultStageFamily: the
// stages the composition actually runs.
func parsePipeline(name string) (map[Slot]string, error) {
	out := make(map[Slot]string, 4)
	for _, part := range strings.Split(name, "+") {
		part = strings.TrimSpace(part)
		i := strings.LastIndex(part, ".")
		if i <= 0 || i == len(part)-1 {
			return nil, fmt.Errorf("policy: bad pipeline stage %q in %q (want \"<name>.<slot>\", slots: %s)",
				part, name, slotList())
		}
		stage, slot := part[:i], Slot(part[i+1:])
		if !validSlot(slot) {
			return nil, fmt.Errorf("policy: unknown stage slot %q in %q (slots: %s)", slot, name, slotList())
		}
		if prev, dup := out[slot]; dup {
			return nil, fmt.Errorf("policy: composition %q names two %s stages (%q and %q)", name, slot, prev, stage)
		}
		out[slot] = stage
	}
	for _, slot := range []Slot{SlotAllocator, SlotSelector} {
		if _, ok := out[slot]; !ok {
			out[slot] = DefaultStageFamily
		}
	}
	return out, nil
}

// compile parses a composition and resolves its stage factories once,
// returning the factory of a pipeline called name, marked predictor-blind
// when every stage is (blindStages). Errors quote the composition as
// given.
func compile(name, composition string) (Factory, error) {
	comp, err := parsePipeline(composition)
	if err != nil {
		return nil, err
	}
	predictorBlind := blind(comp)
	var refs []stageRef
	for _, slot := range Slots() {
		stage, ok := comp[slot]
		if !ok {
			continue
		}
		stageMu.RLock()
		f, ok := stageFactories[slot][stage]
		stageMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("policy: unknown %s %q in %q (registered %ss: %s)",
				slot, stage, composition, slot, strings.Join(StageNames(slot), ", "))
		}
		refs = append(refs, stageRef{slot, stage, f})
	}
	return func(ctx Context) (kernel.Scheduler, error) {
		var (
			lab   kernel.Labeler
			alloc kernel.Allocator
			sel   kernel.Selector
			gov   kernel.Governor
		)
		for _, r := range refs {
			st, err := r.build(ctx)
			if err != nil {
				return nil, err
			}
			ok := false
			switch r.slot {
			case SlotLabeler:
				lab, ok = st.(kernel.Labeler)
			case SlotAllocator:
				alloc, ok = st.(kernel.Allocator)
			case SlotSelector:
				sel, ok = st.(kernel.Selector)
			case SlotGovernor:
				gov, ok = st.(kernel.Governor)
			}
			if !ok {
				return nil, fmt.Errorf("policy: stage %s.%s does not implement the %s interface", r.name, r.slot, r.slot)
			}
		}
		s, err := kernel.NewPipeline(name, lab, alloc, sel, gov)
		if err != nil {
			return nil, fmt.Errorf("policy: building pipeline %q: %w", name, err)
		}
		if predictorBlind {
			kernel.MarkPredictorBlind(s)
		}
		return s, nil
	}, nil
}
