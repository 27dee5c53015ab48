package experiment

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/workload"
)

// ReplicationTable quantifies run-to-run variance: representative
// workloads are re-generated under several seeds and the
// normalised-to-Linux H_ANTT of WASH and COLAB is reported as mean +/- std.
// The paper controls variance by averaging two core orders (§5.1); this
// extension makes the residual workload-generation variance visible.
func ReplicationTable(seeds []uint64) (*Table, error) {
	if len(seeds) == 0 {
		seeds = []uint64{1, 2, 3, 4, 5}
	}
	reps := []string{"Sync-2", "Comm-2", "Rand-7"}
	cfg := cpu.Config2B2S
	kinds := []string{SchedLinux, SchedWASH, SchedCOLAB}
	b := &Batch{Configs: []cpu.Config{cfg}, Policies: kinds, Seeds: seeds}
	for _, idx := range reps {
		comp, ok := workload.CompositionByIndex(idx)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown workload %s", idx)
		}
		b.Scenarios = append(b.Scenarios, comp.Spec())
	}
	cells, err := b.Run(context.Background())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Replication: H_ANTT vs Linux over %d seeds on %s (mean +/- std)", len(seeds), cfg.Name),
		Header: []string{"workload", "wash", "colab"},
	}
	for w, idx := range reps {
		var wash, colab []float64
		for s := range seeds {
			row := cells[(s*len(reps)+w)*len(kinds):] // linux, wash, colab
			wash = append(wash, row[1].Score.HANTT/row[0].Score.HANTT)
			colab = append(colab, row[2].Score.HANTT/row[0].Score.HANTT)
		}
		t.AddRow(idx,
			fmt.Sprintf("%.3f +/- %.3f", mathx.Mean(wash), mathx.Std(wash)),
			fmt.Sprintf("%.3f +/- %.3f", mathx.Mean(colab), mathx.Std(colab)))
	}
	return t, nil
}

// WriteCellsCSV exports a cell matrix (one row per workload x config x
// scheduler) for external analysis.
func WriteCellsCSV(w io.Writer, cells []Cell) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workload", "class", "config", "sched",
		"hantt", "hstp", "hantt_vs_linux", "hstp_vs_linux"}); err != nil {
		return err
	}
	for _, c := range cells {
		rec := []string{
			c.Workload, string(c.Class), c.Config, c.Sched,
			strconv.FormatFloat(c.Raw.HANTT, 'f', 6, 64),
			strconv.FormatFloat(c.Raw.HSTP, 'f', 6, 64),
			strconv.FormatFloat(c.Norm.HANTT, 'f', 6, 64),
			strconv.FormatFloat(c.Norm.HSTP, 'f', 6, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
