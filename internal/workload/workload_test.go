package workload

import (
	"testing"

	"colab/internal/mathx"
	"colab/internal/task"
)

func TestAllBenchmarksListed(t *testing.T) {
	benches := All()
	if len(benches) != 15 {
		t.Fatalf("Table 3 has 15 benchmarks, got %d", len(benches))
	}
	capped := map[string]bool{"water_nsquared": true, "water_spatial": true, "fmm": true}
	for _, b := range benches {
		if b.Name == "" || b.Suite == "" || b.SyncRate == "" || b.CommComp == "" {
			t.Errorf("incomplete metadata for %+v", b)
		}
		if capped[b.Name] && b.MaxThreads != 2 {
			t.Errorf("%s must be capped at 2 threads (§5.2)", b.Name)
		}
		if !capped[b.Name] && b.MaxThreads != 0 {
			t.Errorf("%s must be uncapped", b.Name)
		}
		if _, ok := ByName(b.Name); !ok {
			t.Errorf("ByName(%s) missing", b.Name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Errorf("unknown benchmark resolved")
	}
	if len(All()) != 15 {
		t.Errorf("All() size")
	}
}

func TestInstantiateExactThreadCounts(t *testing.T) {
	rng := mathx.NewRNG(5)
	for _, b := range All() {
		for _, n := range []int{1, 2, 3, 4, 6, 9, 13, 16} {
			want := n
			if b.MaxThreads > 0 && want > b.MaxThreads {
				want = b.MaxThreads
			}
			app, err := b.Instantiate(0, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			if app.NumThreads() != want {
				t.Fatalf("%s(n=%d): %d threads, want %d", b.Name, n, app.NumThreads(), want)
			}
			for _, th := range app.Threads {
				if len(th.Program) == 0 {
					t.Fatalf("%s(n=%d): thread %s has empty program", b.Name, n, th.Name)
				}
				if th.Program.TotalWork() <= 0 {
					t.Fatalf("%s(n=%d): thread %s has no work", b.Name, n, th.Name)
				}
				s := th.Profile.TrueSpeedup()
				if s < 1.05 || s > 2.85 {
					t.Fatalf("%s: speedup %v out of envelope", b.Name, s)
				}
			}
		}
	}
}

// mustInstantiate builds an app from a benchmark whose generator is known
// to be well-formed.
func mustInstantiate(t *testing.T, b Benchmark, appID, n int, rng *mathx.RNG) *task.App {
	t.Helper()
	app, err := b.Instantiate(appID, n, rng)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestInstantiateDeterministic(t *testing.T) {
	for _, b := range All() {
		a1 := mustInstantiate(t, b, 3, 4, mathx.NewRNG(77))
		a2 := mustInstantiate(t, b, 3, 4, mathx.NewRNG(77))
		if len(a1.Threads) != len(a2.Threads) {
			t.Fatalf("%s: nondeterministic thread count", b.Name)
		}
		for i := range a1.Threads {
			w1 := a1.Threads[i].Program.TotalWork()
			w2 := a2.Threads[i].Program.TotalWork()
			if w1 != w2 {
				t.Fatalf("%s thread %d: work %v != %v", b.Name, i, w1, w2)
			}
			if a1.Threads[i].Profile != a2.Threads[i].Profile {
				t.Fatalf("%s thread %d: profiles differ", b.Name, i)
			}
		}
	}
}

func TestSyncRateShowsInPrograms(t *testing.T) {
	rng := mathx.NewRNG(9)
	countLocks := func(app *task.App) int {
		locks := 0
		for _, th := range app.Threads {
			for _, op := range th.Program {
				if _, ok := op.(task.Lock); ok {
					locks++
				}
			}
		}
		return locks
	}
	fluid, _ := ByName("fluidanimate")
	spatial, _ := ByName("water_spatial")
	blacks, _ := ByName("blackscholes")
	lf := countLocks(mustInstantiate(t, fluid, 0, 4, rng))
	ls := countLocks(mustInstantiate(t, spatial, 1, 2, rng))
	lb := countLocks(mustInstantiate(t, blacks, 2, 4, rng))
	// fluidanimate has ~100x the lock rate of other PARSEC apps (§5.2).
	if lf < 20*ls {
		t.Errorf("fluidanimate locks %d not >> water_spatial %d", lf, ls)
	}
	if lb != 0 {
		t.Errorf("blackscholes must be lock-free, got %d locks", lb)
	}
}

func TestPipelineStructure(t *testing.T) {
	rng := mathx.NewRNG(11)
	dedup, _ := ByName("dedup")
	app := mustInstantiate(t, dedup, 0, 9, rng)
	if len(app.Queues) == 0 {
		t.Fatalf("dedup pipeline declared no queues")
	}
	puts, gets := 0, 0
	for _, th := range app.Threads {
		for _, op := range th.Program {
			switch op.(type) {
			case task.Put:
				puts++
			case task.Get:
				gets++
			}
		}
	}
	if puts == 0 || gets == 0 {
		t.Fatalf("pipeline has no queue traffic: puts=%d gets=%d", puts, gets)
	}
	// Flow conservation: total puts must equal total gets (every produced
	// item is consumed) or the pipeline deadlocks.
	if puts != gets {
		t.Fatalf("queue flow imbalance: %d puts vs %d gets", puts, gets)
	}
}

func TestPipelineFlowConservationAcrossWidths(t *testing.T) {
	rng := mathx.NewRNG(13)
	for _, name := range []string{"dedup", "ferret", "freqmine"} {
		b, _ := ByName(name)
		for _, n := range []int{1, 2, 4, 5, 7, 9, 14} {
			app, err := b.Instantiate(0, n, rng)
			if err != nil {
				t.Fatal(err)
			}
			perQueue := map[int]int{}
			for _, th := range app.Threads {
				for _, op := range th.Program {
					switch o := op.(type) {
					case task.Put:
						perQueue[o.ID]++
					case task.Get:
						perQueue[o.ID]--
					}
				}
			}
			for q, delta := range perQueue {
				if delta != 0 {
					t.Fatalf("%s(n=%d) queue %d imbalanced by %d", name, n, q, delta)
				}
			}
		}
	}
}

func TestBarrierPartiesMatchThreadCount(t *testing.T) {
	rng := mathx.NewRNG(17)
	for _, name := range []string{"blackscholes", "radix", "fft", "lu_cb", "bodytrack", "fluidanimate"} {
		b, _ := ByName(name)
		app := mustInstantiate(t, b, 0, 5, rng)
		n := app.NumThreads()
		for _, th := range app.Threads {
			for _, op := range th.Program {
				if bar, ok := op.(task.Barrier); ok && bar.Parties != n {
					t.Fatalf("%s: barrier parties %d != threads %d", name, bar.Parties, n)
				}
			}
		}
	}
}

func TestCompositionsMatchTable4(t *testing.T) {
	// Thread totals straight from Table 4 of the paper.
	wantThreads := map[string]int{
		"Sync-1": 4, "Sync-2": 18, "Sync-3": 9, "Sync-4": 20,
		"NSync-1": 4, "NSync-2": 16, "NSync-3": 8, "NSync-4": 20,
		"Comm-1": 4, "Comm-2": 16, "Comm-3": 9, "Comm-4": 20,
		"Comp-1": 4, "Comp-2": 17, "Comp-3": 8, "Comp-4": 20,
		"Rand-1": 19, "Rand-2": 10, "Rand-3": 9, "Rand-4": 8, "Rand-5": 6,
		"Rand-6": 21, "Rand-7": 20, "Rand-8": 17, "Rand-9": 55, "Rand-10": 53,
	}
	comps := Compositions()
	if len(comps) != 26 {
		t.Fatalf("Table 4 has 26 workloads, got %d", len(comps))
	}
	for _, c := range comps {
		want, ok := wantThreads[c.Index]
		if !ok {
			t.Errorf("unexpected composition %s", c.Index)
			continue
		}
		if got := c.TotalThreads(); got != want {
			t.Errorf("%s: %d threads, want %d (Table 4)", c.Index, got, want)
		}
		for _, p := range c.Parts {
			if _, ok := ByName(p.Bench); !ok {
				t.Errorf("%s references unknown benchmark %s", c.Index, p.Bench)
			}
		}
	}
	for cl, want := range map[Class]int{ClassSync: 4, ClassNSync: 4, ClassComm: 4, ClassComp: 4, ClassRand: 10} {
		if got := len(CompositionsByClass(cl)); got != want {
			t.Errorf("class %s: %d workloads, want %d", cl, got, want)
		}
	}
}

func TestCompositionBuild(t *testing.T) {
	comp, ok := CompositionByIndex("Sync-4")
	if !ok {
		t.Fatal("Sync-4 missing")
	}
	w, err := comp.Spec().Build(123)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumThreads() != comp.TotalThreads() {
		t.Fatalf("built %d threads, want %d", w.NumThreads(), comp.TotalThreads())
	}
	seen := map[int]bool{}
	for _, a := range w.Apps {
		if seen[a.ID] {
			t.Fatalf("duplicate app ID %d", a.ID)
		}
		seen[a.ID] = true
	}
	if comp.NumPrograms() != 4 {
		t.Fatalf("NumPrograms = %d", comp.NumPrograms())
	}
	if _, ok := CompositionByIndex("Nope-1"); ok {
		t.Fatalf("unknown composition resolved")
	}
}

func TestSingleProgram(t *testing.T) {
	w, err := SingleProgram("ferret", 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Apps) != 1 || w.Apps[0].NumThreads() != 6 {
		t.Fatalf("single program shape wrong")
	}
	if _, err := SingleProgram("nope", 4, 1); err == nil {
		t.Fatalf("unknown benchmark must error")
	}
}

func TestMergeStagesAndShares(t *testing.T) {
	stages := []PipeStage{
		{Name: "a", WorkItem: 1},
		{Name: "b", WorkItem: 5},
		{Name: "c", WorkItem: 2},
		{Name: "d", WorkItem: 1},
	}
	merged := mergeStages(stages, 2)
	if len(merged) != 2 {
		t.Fatalf("merged to %d stages", len(merged))
	}
	if merged[0].WorkItem+merged[1].WorkItem != 9 {
		t.Fatalf("work lost in merge: %v", merged)
	}
	if got := mergeStages(stages, 10); len(got) != 4 {
		t.Fatalf("over-merge: %d", len(got))
	}
	shares := splitShares(10, 3)
	total := 0
	for _, s := range shares {
		total += s
	}
	if total != 10 || shares[0]-shares[2] > 1 {
		t.Fatalf("shares = %v", shares)
	}
}
