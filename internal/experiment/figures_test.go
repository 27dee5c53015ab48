package experiment

import (
	"strconv"
	"testing"
)

// TestFiguresShareOneMatrix exercises the aggregated figures end-to-end.
// The runner memoises (workload, config, scheduler) cells, so figures 5, 8,
// 9 and the summary share most of their simulations; total cost is roughly
// one full matrix run.
func TestFiguresShareOneMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix figures are not -short friendly")
	}
	r := testRunner(t)

	fig5, err := r.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	// Sync and NSync groups x (4 configs + geomean) rows.
	if len(fig5.Rows) != 10 {
		t.Fatalf("figure 5 rows = %d", len(fig5.Rows))
	}
	assertGroupRow(t, fig5.Rows, "Sync")
	assertGroupRow(t, fig5.Rows, "NSync")

	fig8, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	assertGroupRow(t, fig8.Rows, "Thread-low")
	assertGroupRow(t, fig8.Rows, "Thread-high")
	// The paper's strongest contrast: COLAB gains much more on thread-low
	// than on thread-high workloads.
	low := geomeanCell(t, fig8.Rows, "Thread-low", 4)
	high := geomeanCell(t, fig8.Rows, "Thread-high", 4)
	if low >= high {
		t.Errorf("thread-low COLAB H_ANTT %.3f not better than thread-high %.3f", low, high)
	}

	fig9, err := r.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	assertGroupRow(t, fig9.Rows, "2-programmed")
	assertGroupRow(t, fig9.Rows, "4-programmed")

	sum, err := r.Summary()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 2 {
		t.Fatalf("summary rows = %d", len(sum.Rows))
	}
	// Headline ordering: COLAB < WASH < 1.0 on normalised H_ANTT.
	var washANTT, colabANTT float64
	for _, row := range sum.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", row[1], err)
		}
		switch row[0] {
		case SchedWASH:
			washANTT = v
		case SchedCOLAB:
			colabANTT = v
		}
	}
	if !(colabANTT < washANTT && washANTT < 1.0) {
		t.Errorf("headline ordering broken: colab %.3f, wash %.3f", colabANTT, washANTT)
	}

	det, err := r.DetailTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(det.Rows) != 104 {
		t.Fatalf("detail rows = %d, want 26x4", len(det.Rows))
	}
}

func assertGroupRow(t *testing.T, rows [][]string, group string) {
	t.Helper()
	for _, row := range rows {
		if row[0] == group && row[1] == "geomean" {
			return
		}
	}
	t.Fatalf("no geomean row for group %s", group)
}

// geomeanCell fetches the named group's geomean row value at column idx.
func geomeanCell(t *testing.T, rows [][]string, group string, idx int) float64 {
	t.Helper()
	for _, row := range rows {
		if row[0] == group && row[1] == "geomean" {
			v, err := strconv.ParseFloat(row[idx], 64)
			if err != nil {
				t.Fatalf("parse %q: %v", row[idx], err)
			}
			return v
		}
	}
	t.Fatalf("group %s missing", group)
	return 0
}
