package workload

// This file holds the process-wide workload registries: every benchmark
// generator (the 15 Table 3 built-ins plus any generator a library user
// registers) and every named scenario (the 26 Table 4 compositions plus
// user scenarios) is reachable by a string name through one table,
// mirroring the policy/stage registry in internal/policy. The scenario
// grammar, SingleProgram, the experiment harness and the cmd tools all
// resolve names here, so the set of known workload names lives in exactly
// one place.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

var (
	regMu sync.RWMutex
	// benchByName holds built-ins and user benchmarks; benchOrder keeps
	// registration order (built-ins first, in Table 3 order).
	benchByName map[string]Benchmark
	benchOrder  []string
	// scenByName holds named scenarios as parsed specs; scenOrder keeps
	// registration order (Table 4 first).
	scenByName map[string]Spec
	scenOrder  []string

	builtinsOnce sync.Once
)

// ensureBuiltins seeds the registries lazily so every accessor sees the
// paper's benchmarks and compositions without depending on package init
// order.
func ensureBuiltins() {
	builtinsOnce.Do(func() {
		regMu.Lock()
		defer regMu.Unlock()
		benchByName = make(map[string]Benchmark)
		scenByName = make(map[string]Spec)
		for _, b := range builtinBenchmarks() {
			benchByName[b.Name] = b
			benchOrder = append(benchOrder, b.Name)
		}
		for _, c := range Compositions() {
			scenByName[c.Index] = c.Spec()
			scenOrder = append(scenOrder, c.Index)
		}
		// The standard suite registers as spec literals (never through
		// ParseSpec, which would re-enter this Once).
		for _, s := range standardSuite() {
			scenByName[s.Name] = s.Spec
			scenOrder = append(scenOrder, s.Name)
		}
	})
}

// validName reports whether a registry name is representable in the
// scenario grammar.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Register adds a benchmark generator to the process-wide registry, making
// it addressable by name in the scenario grammar, SingleProgram, the
// experiment harness and the cmd tools. It errors on a grammar-unsafe
// name, a nil generator, a non-positive default thread count, or a name
// collision with any benchmark or scenario (the Table 3/Table 4 names are
// taken).
func Register(b Benchmark) error {
	ensureBuiltins()
	if !validName(b.Name) {
		return fmt.Errorf("workload: benchmark name %q is not grammar-safe (want [A-Za-z0-9_-]+)", b.Name)
	}
	if b.Gen == nil {
		return fmt.Errorf("workload: benchmark %q has a nil generator", b.Name)
	}
	if b.DefaultThreads < 1 {
		return fmt.Errorf("workload: benchmark %q needs DefaultThreads >= 1", b.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := benchByName[b.Name]; dup {
		return fmt.Errorf("workload: benchmark %q already registered", b.Name)
	}
	if _, dup := scenByName[b.Name]; dup {
		return fmt.Errorf("workload: %q already names a registered scenario", b.Name)
	}
	benchByName[b.Name] = b
	benchOrder = append(benchOrder, b.Name)
	return nil
}

// MustRegister is Register for init-time use; it panics on error.
func MustRegister(b Benchmark) {
	if err := Register(b); err != nil {
		panic(err)
	}
}

// RegisterScenario adds a named scenario, making name resolvable wherever
// the scenario grammar is accepted. The spec is stored fully expanded, so
// later registrations cannot change its meaning. It errors on a
// grammar-unsafe name, an empty spec, or a collision with any scenario or
// benchmark name.
func RegisterScenario(name string, s Spec) error {
	ensureBuiltins()
	if !validName(name) {
		return fmt.Errorf("workload: scenario name %q is not grammar-safe (want [A-Za-z0-9_-]+)", name)
	}
	if len(s.Terms) == 0 {
		return fmt.Errorf("workload: scenario %q has no terms", name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := scenByName[name]; dup {
		return fmt.Errorf("workload: scenario %q already registered", name)
	}
	if _, dup := benchByName[name]; dup {
		return fmt.Errorf("workload: %q already names a registered benchmark", name)
	}
	s.Name = name
	scenByName[name] = s
	scenOrder = append(scenOrder, name)
	return nil
}

// All returns the fifteen built-in benchmarks of Table 3 in paper order.
// User registrations do not appear here: All is the fixed training and
// figure-reproduction surface (perfmodel collects its symmetric runs over
// it), so its contents cannot depend on what a process registered. Use
// Registered for the full inventory.
func All() []Benchmark { return builtinBenchmarks() }

// Registered returns every registered benchmark — built-ins in Table 3
// order, then user benchmarks in registration order.
func Registered() []Benchmark {
	ensureBuiltins()
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Benchmark, 0, len(benchOrder))
	for _, name := range benchOrder {
		out = append(out, benchByName[name])
	}
	return out
}

// ByName looks a benchmark up by name (built-in or user-registered).
func ByName(name string) (Benchmark, bool) {
	ensureBuiltins()
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := benchByName[name]
	return b, ok
}

// BenchmarkNames returns every registered benchmark name in sorted order
// (the error-listing and inventory surface).
func BenchmarkNames() []string {
	ensureBuiltins()
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(benchByName))
	for name := range benchByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ScenarioByName looks a registered scenario up by name.
func ScenarioByName(name string) (Spec, bool) {
	ensureBuiltins()
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := scenByName[name]
	return s, ok
}

// ScenarioNames returns every registered scenario name in sorted order.
func ScenarioNames() []string {
	ensureBuiltins()
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(scenByName))
	for name := range scenByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func unknownBenchmarkError(name string) error {
	return fmt.Errorf("workload: unknown benchmark %q (registered: %s)",
		name, strings.Join(BenchmarkNames(), ", "))
}

func unknownNameError(name string) error {
	return fmt.Errorf("workload: unknown benchmark or scenario %q (benchmarks: %s; scenarios: %s)",
		name, strings.Join(BenchmarkNames(), ", "), strings.Join(ScenarioNames(), ", "))
}
