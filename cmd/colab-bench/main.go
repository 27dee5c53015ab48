// Command colab-bench regenerates the paper's evaluation artefacts: the
// Table 2 speedup model, the Figure 4 single-program study, the class
// figures 5-7, the regroupings of figures 8-9, the 312-experiment summary,
// the extension ablations and the tri-gear multi-tier study.
//
// Usage:
//
//	colab-bench              # the default set (all but -replication, -detail, -classes)
//	colab-bench -fig 5       # one figure
//	colab-bench -summary     # just the closing aggregate
//	colab-bench -ablation    # design-choice + stage-swap ablation table
//	colab-bench -delta       # paper-vs-repro quantitative delta table
//	colab-bench -trigear     # six policies on the 2B2M2S machine
//	colab-bench -oppsweep    # COLAB across the 2B2M2S frequency ladders
//	colab-bench -numa        # migration-cost sensitivity on the 2x2B2S machine
//	colab-bench -fig 4 -numa # several selections all run, in a fixed order
//
// Ctrl-C cancels: context-aware jobs (-delta, -csv) abort mid-matrix, the
// job loop stops before the next job, and a second Ctrl-C kills outright.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/workload"
)

type job struct {
	name string
	run  func() (string, error)
}

func tableJob(name string, f func() (*experiment.Table, error)) job {
	return job{name: name, run: func() (string, error) {
		t, err := f()
		if err != nil {
			return "", err
		}
		return t.String(), nil
	}}
}

func main() {
	// Two-stage interrupt: the first Ctrl-C cancels ctx (context-aware jobs
	// abort mid-matrix, the job loop stops before the next job); the second
	// falls back to the default signal action and kills the process.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "colab-bench: interrupt — cancelling (press Ctrl-C again to kill)")
		cancel()
		signal.Stop(sig)
	}()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "colab-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("colab-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.Int("fig", 0, "regenerate a single figure (4-9)")
	summary := fs.Bool("summary", false, "regenerate only the 312-experiment summary")
	ablation := fs.Bool("ablation", false, "run the COLAB ablation table (design choices and stage swaps)")
	delta := fs.Bool("delta", false, "run the paper-vs-reproduction delta table")
	energy := fs.Bool("energy", false, "run the energy/EDP extension table")
	trigear := fs.Bool("trigear", false, "run the tri-gear (2B2M2S) policy extension table")
	oppsweep := fs.Bool("oppsweep", false, "run the COLAB frequency-ladder sweep on the 2B2M2S machine")
	numa := fs.Bool("numa", false, "run the NUMA migration-cost sensitivity sweep on the 2x2B2S machine")
	replication := fs.Bool("replication", false, "run the multi-seed variance table")
	classes := fs.Bool("classes", false, "run the standard-suite per-class table (@class= regrouping)")
	detail := fs.Bool("detail", false, "print every per-workload cell of the matrix")
	tables := fs.Bool("tables", false, "regenerate only tables 2-4")
	csvPath := fs.String("csv", "", "also export the full 26x4 matrix as CSV to this file")
	seed := fs.Uint64("seed", 1, "workload generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	start := time.Now()
	r, err := experiment.NewRunner(*seed)
	if err != nil {
		return err
	}

	all := []job{
		{name: "table2", run: experiment.Table2},
		{name: "table3", run: func() (string, error) { return experiment.Table3().String(), nil }},
		{name: "table4", run: func() (string, error) { return experiment.Table4().String(), nil }},
		tableJob("fig4", r.Figure4),
		tableJob("fig5", r.Figure5),
		tableJob("fig6", r.Figure6),
		tableJob("fig7", r.Figure7),
		tableJob("fig8", r.Figure8),
		tableJob("fig9", r.Figure9),
		tableJob("summary", r.Summary),
		tableJob("delta", func() (*experiment.Table, error) { return r.DeltaTable(ctx) }),
		tableJob("ablation", func() (*experiment.Table, error) { return r.AblationTable(ctx) }),
		tableJob("energy", r.EnergyTable),
		tableJob("trigear", r.TriGearTable),
		tableJob("oppsweep", r.OPPSweepTable),
		tableJob("numa", r.NUMASweepTable),
		tableJob("replication", func() (*experiment.Table, error) {
			return experiment.ReplicationTable(nil)
		}),
		tableJob("classes", func() (*experiment.Table, error) {
			// The standard suite under every paper policy plus the GTS/EAS
			// extensions (Linux joins implicitly as the reference).
			return r.ClassTable(ctx, nil, nil, []string{
				experiment.SchedWASH, experiment.SchedCOLAB,
				experiment.SchedGTS, experiment.SchedEAS,
			})
		}),
		tableJob("detail", r.DetailTable),
	}

	// Every selected job runs, in job order; with no selection, the
	// default set runs.
	selected := map[string]bool{}
	for name, on := range map[string]bool{
		"summary": *summary, "ablation": *ablation, "delta": *delta, "energy": *energy,
		"trigear": *trigear, "oppsweep": *oppsweep, "numa": *numa, "replication": *replication,
		"classes": *classes, "detail": *detail,
		"table2": *tables, "table3": *tables, "table4": *tables,
		fmt.Sprintf("fig%d", *fig): *fig != 0,
	} {
		if on {
			selected[name] = true
		}
	}
	byDefault := len(selected) == 0
	var jobs []job
	for _, j := range all {
		// replication is opt-in (5x the matrix cost); detail is opt-in
		// (104 rows of output); classes is opt-in (its own suite sweep).
		optIn := j.name == "replication" || j.name == "detail" || j.name == "classes"
		if selected[j.name] || byDefault && !optIn {
			jobs = append(jobs, j)
		}
		delete(selected, j.name)
	}
	if len(selected) > 0 { // only -fig can name a job that does not exist
		return fmt.Errorf("nothing selected (unknown figure %d)", *fig)
	}

	if *csvPath != "" {
		cells, err := r.RunMatrixContext(ctx, workload.Compositions(), cpu.EvaluatedConfigs(),
			[]string{experiment.SchedWASH, experiment.SchedCOLAB})
		if err != nil {
			return fmt.Errorf("csv export: %w", err)
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			return fmt.Errorf("csv export: %w", err)
		}
		if err := experiment.WriteCellsCSV(f, cells); err != nil {
			return fmt.Errorf("csv export: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("csv export: %w", err)
		}
		fmt.Fprintf(stderr, "colab-bench: wrote %s\n", *csvPath)
	}

	for _, j := range jobs {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("cancelled before %s: %w", j.name, err)
		}
		out, err := j.run()
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		fmt.Fprintln(stdout, out)
	}
	fmt.Fprintf(stderr, "colab-bench: done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
