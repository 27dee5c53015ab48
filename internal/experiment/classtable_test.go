package experiment

import (
	"context"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/workload"
)

// TestClassTableStandardSuite regenerates the Figure 8-style per-class
// table for the four standard-suite scenarios under all five policies
// (Linux joins implicitly as the normalisation reference).
func TestClassTableStandardSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep in -short")
	}
	r := testRunner(t)
	kinds := []string{SchedWASH, SchedCOLAB, SchedGTS, SchedEAS}
	tab, err := r.ClassTable(context.Background(), nil, []cpu.Config{cpu.Config2B2S}, kinds)
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, class := range []string{"mixed", "interactive", "batch", "memory"} {
		if !strings.Contains(out, class) {
			t.Errorf("table misses class group %q:\n%s", class, out)
		}
	}
	for _, kind := range kinds {
		if !strings.Contains(out, kind+" H_ANTT") {
			t.Errorf("table misses column for %s:\n%s", kind, out)
		}
	}
	if !strings.Contains(out, "geomean") {
		t.Errorf("table misses geomean rows:\n%s", out)
	}
	// Default grouping covers exactly the suite's four classes: four
	// per-config rows plus four geomean rows.
	if got := strings.Count(out, "geomean"); got != 4 {
		t.Errorf("want 4 geomean rows, got %d:\n%s", got, out)
	}
}

// TestScenarioMatrixCells checks the Cell surface ScenarioMatrixContext exposes:
// scenario names, @class= labels and Linux-normalised scores.
func TestScenarioMatrixCells(t *testing.T) {
	r := testRunner(t)
	spec, err := workload.ResolveSpec("interactive-burst")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := r.ScenarioMatrixContext(context.Background(), []workload.Spec{spec}, []cpu.Config{cpu.Config2B2S}, []string{SchedCOLAB})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("%d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.Workload != "interactive-burst" || c.Class != workload.Class("interactive") {
		t.Errorf("cell identity = %q/%q", c.Workload, c.Class)
	}
	if c.Raw.HANTT <= 0 || c.Norm.HANTT <= 0 {
		t.Errorf("degenerate scores %+v", c)
	}
	// ClassTable rejects unclassified scenarios by name.
	if _, err := r.ClassTable(context.Background(), []string{"Sync-1"}, []cpu.Config{cpu.Config2B2S}, nil); err == nil || !strings.Contains(err.Error(), "@class=") {
		t.Errorf("unclassified scenario error = %v", err)
	}
}
