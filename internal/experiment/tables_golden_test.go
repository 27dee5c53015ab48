package experiment

import (
	"os"
	"strings"
	"testing"
)

const goldenTablesPath = "testdata/golden_tables.txt"

// goldenTables renders the tables that run their own simulations outside
// the matrix path — Figure 4, energy, tri-gear, OPP sweep, NUMA sweep and
// replication — at seed 1, in that order.
func goldenTables(t *testing.T) string {
	t.Helper()
	r, err := NewRunner(1)
	if err != nil {
		t.Fatalf("runner: %v", err)
	}
	var b strings.Builder
	for _, f := range []func() (*Table, error){
		r.Figure4, r.EnergyTable, r.TriGearTable, r.OPPSweepTable, r.NUMASweepTable,
		func() (*Table, error) { return ReplicationTable(nil) },
	} {
		tab, err := f()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.String())
		b.WriteString("\n")
	}
	return b.String()
}

// TestTablesUnchanged pins the rendered tables byte for byte, so a change
// to how they run cannot move a digit unnoticed. Regenerate with
// GOLDEN_WRITE=1 only for an intentional behaviour change.
func TestTablesUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("rendered-table regression is not -short")
	}
	got := goldenTables(t)
	if os.Getenv("GOLDEN_WRITE") != "" {
		if err := os.WriteFile(goldenTablesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenTablesPath)
	if err != nil {
		t.Fatalf("golden tables missing: %v", err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	if len(lines) != len(want) {
		t.Fatalf("golden tables have %d lines, rendered %d", len(want), len(lines))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d drifted:\n  golden: %s\n  got:    %s", i+1, want[i], lines[i])
		}
	}
}
