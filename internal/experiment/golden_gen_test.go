package experiment

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"testing"

	"colab/internal/cpu"
	"colab/internal/workload"
)

// goldenPaperLines regenerates the pre-refactor regression corpus: raw
// H_ANTT/H_STP cells, single-program H_NTT rows and energy figures for the
// four paper configs at seed 1. The two-tier machine model is the degenerate
// case of the tiered model, so these numbers must never change.
func goldenPaperLines(t *testing.T) []string {
	t.Helper()
	r, err := NewRunner(1)
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }

	mixes := []string{"Sync-2", "NSync-2", "Comm-2", "Comp-2", "Rand-7"}
	kinds := []string{SchedLinux, SchedWASH, SchedCOLAB, SchedGTS, SchedEAS}
	for _, idx := range mixes {
		comp, ok := workload.CompositionByIndex(idx)
		if !ok {
			t.Fatalf("unknown composition %s", idx)
		}
		for _, cfg := range cpu.EvaluatedConfigs() {
			for _, kind := range kinds {
				s, err := r.ScenarioScore(comp.Spec(), cfg, kind)
				if err != nil {
					t.Fatalf("mix %s %s %s: %v", idx, cfg.Name, kind, err)
				}
				add("mix|%s|%s|%s HANTT=%s HSTP=%s", idx, cfg.Name, kind, ff(s.HANTT), ff(s.HSTP))
			}
		}
	}
	for _, abl := range []string{SchedCOLABNoScale, SchedCOLABLocal, SchedCOLABFlat, SchedCOLABNoPull, SchedCOLABOracle} {
		comp, _ := workload.CompositionByIndex("Sync-2")
		s, err := r.ScenarioScore(comp.Spec(), cpu.Config2B2S, abl)
		if err != nil {
			t.Fatalf("ablation %s: %v", abl, err)
		}
		add("mix|Sync-2|%s|%s HANTT=%s HSTP=%s", cpu.Config2B2S.Name, abl, ff(s.HANTT), ff(s.HSTP))
	}
	for _, bench := range []string{"radix", "ferret", "fluidanimate"} {
		for _, kind := range PaperSchedulers() {
			s, err := r.SingleProgram(bench, 4, cpu.Config2B2S, kind)
			if err != nil {
				t.Fatalf("single %s %s: %v", bench, kind, err)
			}
			add("single|%s|%s HNTT=%s", bench, kind, ff(s.HNTT))
		}
	}
	for _, kind := range kinds {
		comp, _ := workload.CompositionByIndex("Sync-2")
		w, err := comp.Spec().Build(1)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		res, err := r.runPolicy(context.Background(), cpu.Config2B4S, kind, w, nil)
		if err != nil {
			t.Fatalf("energy run %s: %v", kind, err)
		}
		add("energy|Sync-2|2B4S|%s E=%s EDP=%s end=%d mig=%d pre=%d sw=%d",
			kind, ff(res.TotalEnergyJ()), ff(res.EnergyDelayProduct()), int64(res.EndTime),
			res.TotalMigrations, res.TotalPreemptions, res.TotalSwitches)
	}
	sort.Strings(lines)
	return lines
}

func TestWriteGolden(t *testing.T) {
	if os.Getenv("GOLDEN_WRITE") == "" {
		t.Skip("set GOLDEN_WRITE=1 to regenerate")
	}
	lines := goldenPaperLines(t)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	if err := os.WriteFile("testdata/golden_paper_configs.txt", []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}
