package experiment

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"colab/internal/cpu"
	"colab/internal/policy"
	"colab/internal/workload"
)

// reducedAblation runs the ablation table once on a reduced scope (Sync-2
// on 2B2S) and shares it between the tests that read it.
var reducedAblation struct {
	once sync.Once
	tab  *Table
	err  error
}

func reducedAblationTable(t *testing.T) *Table {
	t.Helper()
	if testing.Short() {
		t.Skip("ablation sweep is not -short friendly")
	}
	reducedAblation.once.Do(func() {
		r, err := NewRunner(1)
		if err != nil {
			reducedAblation.err = err
			return
		}
		sync2, _ := workload.CompositionByIndex("Sync-2")
		reducedAblation.tab, reducedAblation.err = r.ablationTable(context.Background(),
			[]workload.Composition{sync2}, []cpu.Config{cpu.Config2B2S})
	})
	if reducedAblation.err != nil {
		t.Fatal(reducedAblation.err)
	}
	tab := reducedAblation.tab
	if len(tab.Rows) != len(AblationVariants()) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(AblationVariants()))
	}
	return tab
}

func ablationCell(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("parse %q: %v", row[col], err)
	}
	return v
}

// The design-choice rows: disabling the biased-global selector must cost
// COLAB against Linux (the coordination is the contribution), and every
// design-choice variant must be in the table.
func TestOptionsAblationTable(t *testing.T) {
	tab := reducedAblationTable(t)
	vsLinux := map[string]float64{}
	for _, row := range tab.Rows {
		vsLinux[row[1]] = ablationCell(t, row, 2)
	}
	if vsLinux[SchedCOLABLocal] <= vsLinux[SchedCOLAB] {
		t.Errorf("local-only selector (%v) should be worse than full COLAB (%v) against Linux",
			vsLinux[SchedCOLABLocal], vsLinux[SchedCOLAB])
	}
	if !strings.Contains(tab.String(), "colab-noscale") {
		t.Errorf("ablation table missing variants")
	}
}

// Every row: finite positive scores under both normalisations; the
// full-COLAB row must normalise to exactly 1 against itself; and the
// governor rows must stay at exactly 1.000 against COLAB on the
// fixed-frequency paper machine (composing a governor must not perturb a
// machine with no ladders).
func TestStageAblationTable(t *testing.T) {
	tab := reducedAblationTable(t)
	for _, row := range tab.Rows {
		for col := 2; col <= 5; col++ {
			if ablationCell(t, row, col) <= 0 {
				t.Errorf("%s: degenerate normalised score in column %s: %s", row[1], tab.Header[col], row[col])
			}
		}
		switch row[1] {
		case SchedCOLAB, "governor -> colab", "governor -> eas":
			// The reference row, and governors on a ladder-less machine:
			// the composition must be score-identical to full COLAB.
			if antt, stp := ablationCell(t, row, 4), ablationCell(t, row, 5); antt != 1 || stp != 1 {
				t.Errorf("%s on 2B2S: want exact 1.000/1.000 against COLAB, got %v/%v", row[1], antt, stp)
			}
		}
	}
}

// The variant list itself: full COLAB comes first as the reference, and
// every composition passes registry validation.
func TestStageAblationVariantsValid(t *testing.T) {
	vs := AblationVariants()
	if vs[0].Label != SchedCOLAB {
		t.Fatalf("first variant must be the full-COLAB reference, got %q", vs[0].Label)
	}
	for _, v := range vs {
		if err := policy.Check(v.Composition); err != nil {
			t.Errorf("variant %q: %v", v.Label, err)
		}
	}
}
