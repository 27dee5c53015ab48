// Package policy is the process-wide scheduler registry: every scheduling
// policy — the five built-in ones, their ablation variants, and any policy a
// library user registers — is reachable by a string name through one
// factory table. The public API (colab.RegisterPolicy / colab.Policies /
// colab.NewPolicy), the experiment harness and the cmd/ tools all consume
// this registry, so the set of known policy names lives in exactly one
// place.
//
// The registry is two-level: whole policies (this file) and individual
// pipeline stages (stage.go). Names using the composition grammar
// ("colab.labeler+wash.selector+...") resolve through the stage level, so
// every stage combination is addressable wherever a policy name is
// accepted. The built-in policies are themselves rows of one name ->
// composition table (builtin.go), built through the same path.
package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/task"
)

// Context carries the shared inputs a policy factory may wire into the
// scheduler it builds. Every field is optional: a zero Context selects each
// policy's neutral defaults (e.g. WASH and COLAB fall back to a neutral
// speedup predictor).
type Context struct {
	// Speedup predicts a thread's big-vs-little speedup (the trained
	// Table 2 model's ThreadPredictor).
	Speedup func(*task.Thread) float64
	// TierSpeedup predicts a thread's speedup on an arbitrary tier (the
	// tri-gear tiered model's TierPredictor). Policies that take per-tier
	// predictions (colab-dvfs) prefer it over interpolating Speedup.
	TierSpeedup func(*task.Thread, int) float64
	// TierSpeedupTiers is the palette TierSpeedup was trained for; policies
	// use it to disable per-tier predictions on foreign machines.
	TierSpeedupTiers []cpu.Tier
}

// Factory builds one scheduler instance from the shared context. Factories
// must return a fresh instance per call: scheduler state is per-machine.
type Factory func(Context) (kernel.Scheduler, error)

var (
	mu        sync.RWMutex
	factories = make(map[string]Factory)
)

// Register adds a policy under name. It errors on an empty name, a nil
// factory, or a name collision — the built-in names below are taken.
func Register(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("policy: empty policy name")
	}
	if f == nil {
		return fmt.Errorf("policy: nil factory for %q", name)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := factories[name]; dup {
		return fmt.Errorf("policy: %q already registered", name)
	}
	factories[name] = func(ctx Context) (kernel.Scheduler, error) {
		s, err := f(ctx)
		if err != nil {
			return nil, fmt.Errorf("policy: building %q: %w", name, err)
		}
		if s == nil {
			return nil, fmt.Errorf("policy: factory for %q returned nil", name)
		}
		return s, nil
	}
	return nil
}

// MustRegister is Register for init-time use; it panics on error.
func MustRegister(name string, f Factory) {
	if err := Register(name, f); err != nil {
		panic(err)
	}
}

// registered reports whether name is a registered whole policy.
func registered(name string) bool {
	mu.RLock()
	defer mu.RUnlock()
	_, ok := factories[name]
	return ok
}

// Names returns every registered policy name in sorted order.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(factories))
	for name := range factories {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Check reports whether name is registered (or is a resolvable pipeline
// composition); an unknown name errors with the full registered-name list —
// or, for a composition with an unknown stage, the slot's registered stage
// names — so callers surface the valid choices for free. Surrounding
// whitespace is ignored, as Canonical ignores it.
func Check(name string) error {
	_, err := lookup(name)
	return err
}

// New instantiates the named policy. Composition-grammar names build a
// stage pipeline; other unknown names error like Check.
func New(name string, ctx Context) (kernel.Scheduler, error) {
	f, err := lookup(name)
	if err != nil {
		return nil, err
	}
	return f(ctx)
}

// lookup returns the factory New calls for name (trimmed): the registered
// policy, or a pipeline compiled from a composition. Errors quote name.
func lookup(name string) (Factory, error) {
	trimmed := strings.TrimSpace(name)
	mu.RLock()
	f, ok := factories[trimmed]
	mu.RUnlock()
	if ok {
		return f, nil
	}
	if IsComposition(trimmed) {
		return compile(trimmed, name)
	}
	return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)",
		name, strings.Join(Names(), ", "))
}
