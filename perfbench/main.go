// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed measured window, checks every output it
// produces, and prints one JSON result line:
//
//	{"correct": true, "attempted": 1872, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end numbers (setup_s,
// cells_per_s, sim_events_per_s, req_p50_ms, req_p90_ms, cpu_ms_per_cell,
// peak_rss_mb). With -trace 1 a separate traced pass wraps the program's
// public seams in timing code and the metrics are per-layer numbers; the
// traced pass's outputs must be bit-identical to the untraced pass's.
//
// It is normally started through run.sh, which builds it and colab-serve
// from the checkout first. See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives: where to write scratch files, the
// colab-serve binary to start, the workload seed and the measured window.
type env struct {
	root     string
	work     string
	serveBin string
	seed     uint64
	window   time.Duration
	trace    bool
	clock    *vmClock
}

// took is the steal-free host time from a to b.
func (e *env) took(a, b time.Time) time.Duration { return e.clock.effective(a, b) }

// report is a workload's outcome before it is rendered as a result.
type report struct {
	attempted int
	failed    int
	// problems lists verification failures (each also counted in failed
	// unless it concerns the run as a whole).
	problems []string
	metrics  map[string]metric
	spans    []span
}

func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

type workloadFunc func(ctx context.Context, e *env) (*report, error)

var workloads = map[string]workloadFunc{
	"paper-matrix":    runPaperMatrix,
	"numa-bigmachine": runNUMA,
	"serve-sweeps":    runServe,
	"fleet-resweep":   runFleet,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-matrix, numa-bigmachine, serve-sweeps or fleet-resweep")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 12, "length of the measured window")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	root := flag.String("root", ".", "root of the colab checkout")
	work := flag.String("work", "", "scratch directory (default <root>/.bench_build/perfbench/work)")
	serveBin := flag.String("serve-bin", "", "colab-serve binary built from the checkout (serve-sweeps only)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	e := &env{
		root:     *root,
		work:     *work,
		serveBin: *serveBin,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
	}
	if e.work == "" {
		e.work = filepath.Join(e.root, ".bench_build", "perfbench", "work")
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	// The whole run, set-up and verification included, must end well
	// inside the three-minute budget a run is given.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	e.clock = startVMClock()
	t0 := time.Now()
	rep, err := run(ctx, e)
	steal := e.clock.stealShare(t0, time.Now())
	if err != nil {
		e.clock.close()
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: hypervisor steal took %.1f%% of runnable vCPU time\n", 100*steal)
	if e.trace {
		rep.set("host.probe_ms", e.probeMedian(9), "ms")
		rep.set("host.steal_share", steal, "ratio")
	}
	e.clock.close()
	if e.trace {
		if path, err := writeSpans(e, *name, rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rep.spans), path)
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	out := result{
		Correct:   rep.failed == 0 && len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
