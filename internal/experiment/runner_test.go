package experiment

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/metrics"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/workload"
)

// ScenarioScore returns the auto-baselined H_ANTT / H_STP of one
// (scenario, config, scheduler) cell, averaged over the two core orders,
// memoised in the runner's cache: the single-cell path (one Cache.Do
// around specScore) that the golden corpus and the per-cell tests score
// through. Open-system scenarios score each app's turnaround from its own
// arrival time.
func (r *Runner) ScenarioScore(spec workload.Spec, cfg cpu.Config, kind string) (metrics.MixScore, error) {
	ctx := context.Background()
	score, _, err := r.cache.Do(ctx, NewCellKey(spec, kind, cfg, r.Seed, r.Params), func() (metrics.MixScore, error) {
		closed, err := spec.Closed().BuildClosed(r.Seed)
		if err != nil {
			return metrics.MixScore{}, err
		}
		return r.specScore(ctx, spec, closed, cfg, kind, r.baselineKeys(spec, cfg.NumCores()), nil, nil)
	})
	return score, err
}

func testRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewSchedulerKinds(t *testing.T) {
	r := testRunner(t)
	kinds := append(PaperSchedulers(), SchedCOLABNoScale, SchedCOLABLocal, SchedCOLABFlat, SchedCOLABNoPull, SchedCOLABOracle, SchedGTS, SchedEAS)
	for _, v := range AblationVariants() {
		kinds = append(kinds, v.Composition)
	}
	for _, kind := range kinds {
		s, err := r.NewScheduler(kind)
		if err != nil {
			t.Errorf("NewScheduler(%s): %v", kind, err)
			continue
		}
		if s == nil {
			t.Errorf("NewScheduler(%s) = nil", kind)
		}
	}
	if _, err := r.NewScheduler("bogus"); err == nil {
		t.Errorf("unknown kind must error")
	}
}

// runPolicy synthesises counters exactly for the kinds that consult a
// speedup predictor: a predictor-blind run leaves every counter zero, and
// a predictor run fills them, as its labeler needs.
func TestRunPolicyCountersFollowNeedsSpeedup(t *testing.T) {
	r := testRunner(t)
	spec, err := workload.ResolveSpec("Sync-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{SchedLinux, SchedGTS, SchedEAS, SchedCOLABOracle, SchedWASH, SchedCOLAB} {
		w, err := spec.Build(r.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.runPolicy(context.Background(), cpu.Config2B2S, kind, w, nil); err != nil {
			t.Fatal(err)
		}
		for _, th := range w.Threads() {
			if got, want := th.TotalCounters[cpu.CtrCommittedInsts] > 0, policy.NeedsSpeedup(kind); got != want {
				t.Errorf("%s: thread %s has counters = %v, want %v", kind, th.Name, got, want)
			}
		}
	}
}

func TestMixScoreMemoized(t *testing.T) {
	r := testRunner(t)
	comp, _ := workload.CompositionByIndex("Sync-1")
	s1, err := r.ScenarioScore(comp.Spec(), cpu.Config2B2S, SchedLinux)
	if err != nil {
		t.Fatal(err)
	}
	if s1.HANTT <= 0 || s1.HSTP <= 0 {
		t.Fatalf("degenerate score %+v", s1)
	}
	// A mix always runs slower than each app alone on an all-big machine.
	if s1.HANTT < 1 {
		t.Fatalf("H_ANTT %v < 1 against big-only baseline", s1.HANTT)
	}
	s2, err := r.ScenarioScore(comp.Spec(), cpu.Config2B2S, SchedLinux)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatalf("memoised score changed: %+v vs %+v", s1, s2)
	}
}

func TestRunMatrixNormalisesToLinux(t *testing.T) {
	r := testRunner(t)
	comp, _ := workload.CompositionByIndex("NSync-1")
	cells, err := r.RunMatrix([]workload.Composition{comp}, []cpu.Config{cpu.Config2B2S}, []string{SchedLinux, SchedCOLAB})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if c.Sched == SchedLinux {
			if c.Norm.HANTT != 1 || c.Norm.HSTP != 1 {
				t.Fatalf("linux norm = %+v", c.Norm)
			}
		} else if c.Norm.HANTT <= 0 {
			t.Fatalf("bad normalised cell %+v", c)
		}
	}
}

func TestAppAlonePreservesThePrograms(t *testing.T) {
	comp, _ := workload.CompositionByIndex("Comp-1")
	mix, err := comp.Spec().Build(9)
	if err != nil {
		t.Fatal(err)
	}
	closed, err := comp.Spec().BuildClosed(9)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := specAlone(comp.Spec(), closed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(alone.Apps) != 1 {
		t.Fatalf("alone has %d apps", len(alone.Apps))
	}
	mixApp := mix.Apps[1]
	aloneApp := alone.Apps[0]
	if mixApp.Name != aloneApp.Name || mixApp.NumThreads() != aloneApp.NumThreads() {
		t.Fatalf("app identity mismatch")
	}
	for i := range mixApp.Threads {
		if mixApp.Threads[i].Program.TotalWork() != aloneApp.Threads[i].Program.TotalWork() {
			t.Fatalf("thread %d work differs between mix and alone build", i)
		}
	}
	if _, err := specAlone(comp.Spec(), closed, 9); err == nil {
		t.Fatalf("out-of-range app index must error")
	}
}

func TestSingleProgramScore(t *testing.T) {
	r := testRunner(t)
	s, err := r.SingleProgram("swaptions", 4, cpu.Config2B2S, SchedLinux)
	if err != nil {
		t.Fatal(err)
	}
	if s.HNTT < 1 {
		t.Fatalf("single-program H_NTT %v < 1 vs all-big baseline", s.HNTT)
	}
	if s.Bench != "swaptions" || s.Sched != SchedLinux {
		t.Fatalf("labels wrong: %+v", s)
	}
}

func TestStaticTables(t *testing.T) {
	t3 := Table3()
	if len(t3.Rows) != 15 {
		t.Fatalf("Table 3 rows = %d", len(t3.Rows))
	}
	if !strings.Contains(t3.String(), "fluidanimate") {
		t.Fatalf("Table 3 missing fluidanimate")
	}
	t4 := Table4()
	if len(t4.Rows) != 26 {
		t.Fatalf("Table 4 rows = %d", len(t4.Rows))
	}
	if !strings.Contains(t4.String(), "Rand-10") {
		t.Fatalf("Table 4 missing Rand-10")
	}
}

func TestTable2Regeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("training runs are not -short friendly")
	}
	s, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "speedup =") || !strings.Contains(s, "R2=") {
		t.Fatalf("Table 2 output incomplete:\n%s", s)
	}
}

func TestFigure4ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("full single-program sweep is not -short friendly")
	}
	r := testRunner(t)
	tab, err := r.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	// 12 benchmarks + geomean row.
	if len(tab.Rows) != 13 {
		t.Fatalf("Figure 4 rows = %d", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "geomean" {
		t.Fatalf("missing geomean row")
	}
	linux, wash, colab := parseF(t, last[1]), parseF(t, last[2]), parseF(t, last[3])
	// The paper's single-program ordering: both AMP-aware schedulers beat
	// Linux on average, and COLAB is at least competitive with WASH.
	if wash >= linux {
		t.Errorf("WASH geomean %.3f not better than Linux %.3f", wash, linux)
	}
	if colab >= linux || colab > wash {
		t.Errorf("COLAB geomean %.3f vs wash %.3f vs linux %.3f", colab, wash, linux)
	}
}

func TestOracleAblationRuns(t *testing.T) {
	r := testRunner(t)
	comp, _ := workload.CompositionByIndex("Sync-1")
	s, err := r.ScenarioScore(comp.Spec(), cpu.Config2B2S, SchedCOLABOracle)
	if err != nil {
		t.Fatal(err)
	}
	if s.HANTT <= 0 {
		t.Fatalf("oracle score %+v", s)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

// Check that the default trained predictor is wired through NewRunner.
func TestRunnerUsesTrainedModel(t *testing.T) {
	r := testRunner(t)
	if r.Speedup == nil {
		t.Fatal("runner has no speedup predictor")
	}
	m, err := perfmodel.Default()
	if err != nil {
		t.Fatal(err)
	}
	if m.R2 < 0.8 {
		t.Fatalf("default model R2 %v", m.R2)
	}
}
