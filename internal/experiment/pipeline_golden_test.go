package experiment

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/workload"
)

// TestPipelineCompositionsMatchGoldenCorpus is the pipeline-API acceptance
// oracle: the five canonical stage compositions, addressed through the
// registry's composition grammar, must reproduce their monolithic policies
// on every mix cell of the golden corpus to the last bit — the stage
// decomposition is a refactoring of how schedulers are built, not of what
// they do.
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

	monoliths := []string{SchedLinux, SchedWASH, SchedCOLAB, SchedGTS, SchedEAS}
	var composites []string
	back := make(map[string]string, len(monoliths)) // composition -> monolith name
	for _, name := range monoliths {
		comp, ok := policy.CanonicalComposition(name)
		if !ok {
			t.Fatalf("no canonical composition for %s", name)
		}
		composites = append(composites, comp)
		back[comp] = name
	}

	var mixes []workload.Spec
	for _, idx := range []string{"Sync-2", "NSync-2", "Comm-2", "Comp-2", "Rand-7"} {
		mixes = append(mixes, compByIndex(t, idx).Spec())
	}
	b := &Batch{
		Scenarios: mixes,
		Configs:   cpu.EvaluatedConfigs(),
		Policies:  composites,
		Seeds:     []uint64{1},
	}
	cells, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	checked := 0
	for _, c := range cells {
		key := fmt.Sprintf("%s|%s|%s", c.Key.Workload, c.Key.Config, back[c.Key.Policy])
		scores, ok := want[key]
		if !ok {
			t.Fatalf("corpus has no cell %s", key)
		}
		got := fmt.Sprintf("HANTT=%s HSTP=%s", ff(c.Score.HANTT), ff(c.Score.HSTP))
		if got != scores {
			t.Errorf("pipeline %q drifted from monolith on %s:\n  golden:   %s\n  pipeline: %s",
				c.Key.Policy, key, scores, got)
		}
		checked++
	}
	if wantCells := len(mixes) * len(cpu.EvaluatedConfigs()) * len(composites); checked != wantCells {
		t.Fatalf("checked %d cells, want %d", checked, wantCells)
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

// Canonical identity must also hold under a tiered context: plain
// colab.labeler ignores the per-tier model exactly like the "colab"
// policy (per-tier predictions are the dvfs variant's feature), and the
// colab-dvfs composition matches the colab-dvfs policy when the context
// carries the same tiered predictor. The golden corpus cannot see this —
// it runs with a nil TierSpeedup.
func TestCanonicalIdentityWithTieredContext(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the tri-gear tiered model; not -short")
	}
	tm, err := perfmodel.DefaultTriGear()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	r.TierSpeedup, r.TierSpeedupTiers = tm.TierPredictor(), tm.Tiers
	comp := compByIndex(t, "Sync-2")
	for _, name := range []string{SchedCOLAB, SchedCOLABDVFS} {
		canonical, ok := policy.CanonicalComposition(name)
		if !ok {
			t.Fatalf("no canonical composition for %s", name)
		}
		mono, err := r.MixScore(comp, cpu.Config2B2M2S, name)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := r.MixScore(comp, cpu.Config2B2M2S, canonical)
		if err != nil {
			t.Fatal(err)
		}
		if mono != pipe {
			t.Errorf("%s diverges from %s under a tiered context: %+v vs %+v",
				name, canonical, mono, pipe)
		}
	}
}
