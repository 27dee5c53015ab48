package experiment

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/workload"
)

// TestPipelineCompositionsMatchGoldenCorpus is the pipeline-API acceptance
// oracle: the built-ins' stage compositions, addressed through the
// registry's composition grammar, must reproduce the golden corpus to the
// last bit — the five paper and extension policies on every mix cell, the
// five COLAB ablations on their Sync-2 2B2S cells. Every ablation must
// also differ from plain COLAB there, or its switch would be dead.
func TestPipelineCompositionsMatchGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus comparison is not -short")
	}
	raw, err := os.ReadFile("testdata/golden_paper_configs.txt")
	if err != nil {
		t.Fatalf("golden corpus missing: %v", err)
	}
	want := make(map[string]string) // "workload|config|policy" -> "HANTT=... HSTP=..."
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.HasPrefix(line, "mix|") {
			continue
		}
		key, scores, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed corpus line %q", line)
		}
		want[strings.TrimPrefix(key, "mix|")] = scores
	}

	// check runs the compositions of the named built-ins on specs x cfgs
	// and compares every cell with the corpus, returning the scores by
	// corpus key.
	check := func(specs []workload.Spec, cfgs []cpu.Config, names []string) map[string]string {
		back := make(map[string]string, len(names)) // composition -> built-in name
		var composites []string
		for _, name := range names {
			comp, ok := policy.CanonicalComposition(name)
			if !ok {
				t.Fatalf("no canonical composition for %s", name)
			}
			composites = append(composites, comp)
			back[comp] = name
		}
		b := &Batch{Scenarios: specs, Configs: cfgs, Policies: composites, Seeds: []uint64{1}}
		cells, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
		got := make(map[string]string, len(cells))
		for _, c := range cells {
			key := fmt.Sprintf("%s|%s|%s", c.Key.Workload, c.Key.Config, back[c.Key.Policy])
			scores, ok := want[key]
			if !ok {
				t.Fatalf("corpus has no cell %s", key)
			}
			got[key] = fmt.Sprintf("HANTT=%s HSTP=%s", ff(c.Score.HANTT), ff(c.Score.HSTP))
			if got[key] != scores {
				t.Errorf("pipeline %q drifted from the corpus on %s:\n  golden:   %s\n  pipeline: %s",
					c.Key.Policy, key, scores, got[key])
			}
		}
		if wantCells := len(specs) * len(cfgs) * len(names); len(got) != wantCells {
			t.Fatalf("checked %d cells, want %d", len(got), wantCells)
		}
		return got
	}

	var mixes []workload.Spec
	for _, idx := range []string{"Sync-2", "NSync-2", "Comm-2", "Comp-2", "Rand-7"} {
		mixes = append(mixes, compByIndex(t, idx).Spec())
	}
	paper := check(mixes, cpu.EvaluatedConfigs(), []string{SchedLinux, SchedWASH, SchedCOLAB, SchedGTS, SchedEAS})

	ablations := []string{SchedCOLABNoScale, SchedCOLABLocal, SchedCOLABFlat, SchedCOLABNoPull, SchedCOLABOracle}
	sync2 := []workload.Spec{compByIndex(t, "Sync-2").Spec()}
	got := check(sync2, []cpu.Config{cpu.Config2B2S}, ablations)
	plain := paper["Sync-2|2B2S|"+SchedCOLAB]
	for _, name := range ablations {
		if key := "Sync-2|2B2S|" + name; got[key] == plain {
			t.Errorf("%s scores exactly like plain colab (%s): its stage variant changes nothing", name, plain)
		}
	}
}

// TestHybridPipelineRunsEndToEnd exercises a cross-policy hybrid — COLAB's
// labeler feeding WASH's (CFS) selector — through the registry grammar and
// the batch engine, and checks it is a genuinely distinct scheduler: its
// scores differ from both parents on a contended mix.
func TestHybridPipelineRunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a full mix; not -short")
	}
	const hybrid = "colab.labeler+wash.selector+colab.governor"
	if err := policy.Check(hybrid); err != nil {
		t.Fatalf("hybrid composition rejected: %v", err)
	}
	b := &Batch{
		Scenarios: []workload.Spec{compByIndex(t, "Sync-2").Spec()},
		Configs:   []cpu.Config{cpu.Config2B2S},
		Policies:  []string{SchedCOLAB, SchedWASH, hybrid},
		Seeds:     []uint64{1},
	}
	cells, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	scores := make(map[string]float64, len(cells))
	for _, c := range cells {
		if c.Score.HANTT <= 0 || c.Score.HSTP <= 0 {
			t.Fatalf("%s produced degenerate score %+v", c.Key.Policy, c.Score)
		}
		scores[c.Key.Policy] = c.Score.HANTT
	}
	if scores[hybrid] == scores[SchedCOLAB] || scores[hybrid] == scores[SchedWASH] {
		t.Fatalf("hybrid is not distinct: colab=%v wash=%v hybrid=%v",
			scores[SchedCOLAB], scores[SchedWASH], scores[hybrid])
	}
}

// Canonical identity must also hold under a tiered context: every
// built-in and its composition schedule identically on the laddered
// 2B2M2S machine when the context carries the tri-gear tiered predictor.
// Plain colab.labeler ignores the per-tier model exactly like the "colab"
// policy (per-tier predictions are the dvfs variant's feature), and
// colab-dvfs keeps the context's predictor. The golden corpus cannot see
// this — its runs carry no tiered predictor.
func TestCanonicalIdentityWithTieredContext(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the tri-gear tiered model; not -short")
	}
	tm, err := perfmodel.DefaultTriGear()
	if err != nil {
		t.Fatal(err)
	}
	model, err := perfmodel.Default()
	if err != nil {
		t.Fatal(err)
	}
	pctx := policy.Context{
		Speedup:          model.ThreadPredictor(),
		TierSpeedup:      tm.TierPredictor(),
		TierSpeedupTiers: tm.Tiers,
	}
	spec := compByIndex(t, "Sync-2").Spec()
	run := func(name string) *kernel.Result {
		t.Helper()
		s, err := policy.New(name, pctx)
		if err != nil {
			t.Fatal(err)
		}
		w, err := spec.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := kernel.NewMachine(cpu.Config2B2M2S, s, w, kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		res.Sched = "" // the one field a policy and its composition may differ in
		return res
	}
	builtins := 0
	for _, name := range policy.Names() {
		canonical, ok := policy.CanonicalComposition(name)
		if !ok {
			continue // a policy registered by another test
		}
		builtins++
		if mono, pipe := run(name), run(canonical); !reflect.DeepEqual(mono, pipe) {
			t.Errorf("%s diverges from %s under a tiered context (end %v vs %v, %d vs %d switches)",
				name, canonical, mono.EndTime, pipe.EndTime, mono.TotalSwitches, pipe.TotalSwitches)
		}
	}
	if builtins != 11 {
		t.Fatalf("checked %d built-ins, want 11", builtins)
	}
}
