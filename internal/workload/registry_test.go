package workload

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"colab/internal/task"
)

func testGen(b *Builder, n int) {
	for i := 0; i < n; i++ {
		b.Thread(fmt.Sprintf("w%d", i), ComputeProfile(b.RNG()), task.Program{task.Compute{Work: 1e6}})
	}
}

func TestRegisterBenchmarkAndResolve(t *testing.T) {
	name := "regtest-bench"
	if err := registerOnce(name, func() error {
		return Register(Benchmark{Name: name, Suite: "test", DefaultThreads: 2, Gen: testGen})
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := ByName(name); !ok {
		t.Fatalf("registered benchmark not resolvable")
	}
	found := false
	for _, n := range BenchmarkNames() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("BenchmarkNames misses %q", name)
	}
	// The fixed Table 3 surface must not grow.
	if got := len(All()); got != 15 {
		t.Fatalf("All() = %d benchmarks, want 15", got)
	}
	// Grammar resolution end to end, with and without a thread count.
	w, err := ParseSpecBuild(t, name+":3+"+name)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Apps) != 2 || w.Apps[0].NumThreads() != 3 || w.Apps[1].NumThreads() != 2 {
		t.Fatalf("registered benchmark built wrong shape")
	}
}

// ParseSpecBuild is a test helper: parse then build at seed 1.
func ParseSpecBuild(t *testing.T, spec string) (*task.Workload, error) {
	t.Helper()
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Build(1)
}

func TestRegisterCollisionsAndValidation(t *testing.T) {
	if err := Register(Benchmark{Name: "ferret", DefaultThreads: 2, Gen: testGen}); err == nil {
		t.Fatal("duplicate benchmark name must error")
	}
	if err := Register(Benchmark{Name: "Sync-2", DefaultThreads: 2, Gen: testGen}); err == nil {
		t.Fatal("benchmark colliding with a scenario must error")
	}
	if err := Register(Benchmark{Name: "bad name", DefaultThreads: 2, Gen: testGen}); err == nil {
		t.Fatal("grammar-unsafe benchmark name must error")
	}
	if err := Register(Benchmark{Name: "nilgen", DefaultThreads: 2}); err == nil {
		t.Fatal("nil generator must error")
	}
	if err := Register(Benchmark{Name: "nothreads", Gen: testGen}); err == nil {
		t.Fatal("missing DefaultThreads must error")
	}
	spec, err := ParseSpec("ferret:2")
	if err != nil {
		t.Fatal(err)
	}
	if err := RegisterScenario("Sync-2", spec); err == nil {
		t.Fatal("duplicate scenario name must error")
	}
	if err := RegisterScenario("ferret", spec); err == nil {
		t.Fatal("scenario colliding with a benchmark must error")
	}
	if err := RegisterScenario("a+b", spec); err == nil {
		t.Fatal("grammar-unsafe scenario name must error")
	}
	if err := RegisterScenario("noterm", Spec{}); err == nil {
		t.Fatal("empty scenario must error")
	}
}

func TestRegisterScenarioAndResolve(t *testing.T) {
	name := "regtest-mix"
	spec, err := ParseSpec("ferret:2@arrive=poisson(4ms)+radix:2")
	if err != nil {
		t.Fatal(err)
	}
	if err := registerOnce(name, func() error { return RegisterScenario(name, spec) }); err != nil {
		t.Fatal(err)
	}
	got, err := ResolveSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != name || got.NumApps() != 2 || !got.Open() {
		t.Fatalf("resolved scenario wrong: %+v", got)
	}
	// A bare reference to a modified scenario inlines its terms.
	inlined, err := ParseSpec(name)
	if err != nil {
		t.Fatal(err)
	}
	if !inlined.Open() || inlined.NumApps() != 2 {
		t.Fatalf("inlined reference lost structure: %+v", inlined)
	}
	// A modified reference to a modified scenario is rejected.
	if _, err := ParseSpec(name + "@seed=4"); err == nil || !strings.Contains(err.Error(), "cannot be modified") {
		t.Fatalf("modified reference to modified scenario must error, got %v", err)
	}
}

// concurrencyRuns numbers the runs of TestRegistryConcurrency, whose
// benchmark names are fresh in each run.
var concurrencyRuns atomic.Int64

// The registries must be safe under concurrent registration and lookup
// (run with -race).
func TestRegistryConcurrency(t *testing.T) {
	run := concurrencyRuns.Add(1)
	var wg sync.WaitGroup
	errs := make([]error, 0, 64)
	var mu sync.Mutex
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := Register(Benchmark{
				Name: fmt.Sprintf("conc-bench%d-%d", run, i%8), Suite: "test",
				DefaultThreads: 2, Gen: testGen,
			})
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			ByName("ferret")
			BenchmarkNames()
			ScenarioNames()
			if _, err := ResolveSpec("Sync-2"); err != nil {
				t.Errorf("resolve under concurrency: %v", err)
			}
		}(i)
	}
	wg.Wait()
	okCount := 0
	for _, err := range errs {
		if err == nil {
			okCount++
		}
	}
	// Exactly one registration per distinct name may win.
	if okCount != 8 {
		t.Fatalf("concurrent registration: %d successes, want 8", okCount)
	}
}

func TestUnknownNameErrorsListRegistries(t *testing.T) {
	_, err := SingleProgram("nope", 4, 1)
	if err == nil || !strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "ferret") {
		t.Fatalf("SingleProgram unknown error must list benchmarks, got %v", err)
	}
	_, err = ResolveSpec("definitely-not-there")
	if err == nil || !strings.Contains(err.Error(), "Sync-2") || !strings.Contains(err.Error(), "ferret") {
		t.Fatalf("ResolveSpec unknown error must list both registries, got %v", err)
	}
}
