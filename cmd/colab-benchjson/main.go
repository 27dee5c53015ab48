// Command colab-benchjson converts `go test -bench` text output into a
// machine-readable JSON document, so CI can publish the benchmark
// trajectory (ns/op plus the harness's custom metrics such as
// H_ANTT-vs-linux and R2) as a build artefact. It doubles as CI's trend
// gate: -trend diffs the current report against a baseline and fails on
// regressions beyond -max-regress percent — gauged in ns/op, except for
// benchmarks reporting a "/sec" throughput metric (such as events/sec),
// which are higher-is-better and fail on throughput drops instead. CI's
// baseline is the BENCH_ci.json artifact of the previous successful main
// run.
//
// Usage:
//
//	go test -bench=. -benchtime=1x -run='^$' ./... | colab-benchjson -out BENCH_ci.json
//	colab-benchjson -in bench.txt -out BENCH_ci.json
//	colab-benchjson -injson BENCH_ci.json -trend prev/BENCH_ci.json -max-regress 10
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"colab/internal/mathx"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	// Name is the benchmark function name with the -GOMAXPROCS suffix
	// stripped (e.g. "BenchmarkSummaryAll").
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported wall time per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every further reported unit (B/op, allocs/op and the
	// custom b.ReportMetric series like H_ANTT-vs-linux).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the document layout of BENCH_ci.json.
type Report struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "colab-benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("colab-benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "bench output file (default: stdin)")
	inJSON := fs.String("injson", "", "read an already-converted JSON report instead of bench text")
	out := fs.String("out", "", "JSON destination (default: stdout)")
	trend := fs.String("trend", "", "baseline JSON report to diff against; regressions fail the run")
	maxRegress := fs.Float64("max-regress", 10, "ns/op regression tolerance for -trend, in percent")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var rep *Report
	if *inJSON != "" {
		var err error
		if rep, err = loadReport(*inJSON); err != nil {
			return err
		}
	} else {
		src := stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			src = f
		}
		var err error
		if rep, err = Parse(src); err != nil {
			return err
		}
	}

	// -out is honoured regardless of -trend (a failed gate still leaves
	// the converted artefact behind for inspection and upload).
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *trend != "" {
		prev, err := loadReport(*trend)
		if err != nil {
			return err
		}
		return Trend(stdout, prev, rep, *maxRegress)
	}
	if *out != "" {
		return nil
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = stdout.Write(data)
	return err
}

// loadReport reads a previously written BENCH_ci.json document.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s holds no benchmarks", path)
	}
	return rep, nil
}

// Trend diffs cur against prev and writes one line per shared benchmark.
// Per-benchmark cost ratios are first divided by their median, cancelling
// the systematic speed difference between two CI runners (a uniformly
// slower machine shifts every benchmark alike and must not trip the
// gate). It errors when any shared benchmark regressed by more than
// maxRegress percent beyond that median shift; new and removed benchmarks
// are reported but never fail the gate.
//
// A benchmark reporting a throughput metric — any unit ending in "/sec",
// such as the kernel's events/sec — is gated on that metric as
// higher-is-better: its cost ratio is old/new throughput, so a throughput
// drop regresses exactly like an ns/op rise (and a throughput rise can
// never be misread as a slowdown). All other benchmarks gate on ns/op.
func Trend(w io.Writer, prev, cur *Report, maxRegress float64) error {
	prevBench := make(map[string]Benchmark, len(prev.Benchmarks))
	for _, b := range prev.Benchmarks {
		prevBench[b.Name] = b
	}
	var ratios []float64
	for _, b := range cur.Benchmarks {
		if old, ok := prevBench[b.Name]; ok {
			if r, _, valid := costRatio(old, b); valid {
				ratios = append(ratios, r)
			}
		}
	}
	// With too few shared benchmarks the median is dominated by the very
	// regressions it should cancel; fall back to raw ratios there.
	speedShift := 1.0
	if len(ratios) >= minSharedForShift {
		speedShift = mathx.Median(ratios)
	}
	if speedShift != 1 {
		fmt.Fprintf(w, "runner speed shift (median ratio, normalised out): %+.1f%%\n", (speedShift-1)*100)
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	var regressed []string
	for _, b := range cur.Benchmarks {
		seen[b.Name] = true
		old, ok := prevBench[b.Name]
		if !ok {
			fmt.Fprintf(w, "NEW       %-40s %14.0f ns/op\n", b.Name, b.NsPerOp)
			continue
		}
		ratio, unit, valid := costRatio(old, b)
		delta := 0.0
		if valid {
			delta = (ratio/speedShift - 1) * 100
		}
		status := "ok"
		if delta > maxRegress {
			status = "REGRESSED"
			regressed = append(regressed, fmt.Sprintf("%s (%+.1f%%)", b.Name, delta))
		}
		oldV, curV := old.NsPerOp, b.NsPerOp
		if unit != "ns/op" {
			oldV, curV = old.Metrics[unit], b.Metrics[unit]
		}
		fmt.Fprintf(w, "%-9s %-40s %14.0f -> %.0f %s (%+.1f%% cost vs median shift)\n", status, b.Name, oldV, curV, unit, delta)
	}
	var removed []string
	for name := range prevBench {
		if !seen[name] {
			removed = append(removed, name)
		}
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(w, "REMOVED   %s\n", name)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed beyond %.1f%%: %s",
			len(regressed), maxRegress, strings.Join(regressed, ", "))
	}
	fmt.Fprintf(w, "trend gate passed: no regression beyond %.1f%%\n", maxRegress)
	return nil
}

// costRatio compares cur against old in the unit the benchmark is gated
// on, returning the relative cost (>1 means cur is worse). Benchmarks
// reporting a "/sec" throughput metric in both runs gate on it as
// higher-is-better (cost = old/new throughput); everything else gates on
// ns/op. valid is false when neither unit has a usable pair of values.
func costRatio(old, cur Benchmark) (ratio float64, unit string, valid bool) {
	units := make([]string, 0, len(cur.Metrics))
	for u := range cur.Metrics {
		if strings.HasSuffix(u, "/sec") {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	for _, u := range units {
		if o, c := old.Metrics[u], cur.Metrics[u]; o > 0 && c > 0 {
			return o / c, u, true
		}
	}
	if old.NsPerOp > 0 && cur.NsPerOp > 0 {
		return cur.NsPerOp / old.NsPerOp, "ns/op", true
	}
	return 1, "ns/op", false
}

// minSharedForShift is the fewest shared benchmarks for which the median
// ratio is treated as runner speed rather than code.
const minSharedForShift = 5

// Parse reads `go test -bench` output and collects every benchmark line.
// Non-benchmark lines (headers, PASS/ok, test logs) are skipped; malformed
// benchmark lines are an error so CI fails loudly rather than publishing a
// truncated artefact.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// A result line is "BenchmarkName-P N <value unit>...": require a
		// numeric iteration count to skip "BenchmarkX ran in ..." chatter.
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: trimProcs(fields[0]), Iterations: iters}
		rest := fields[2:]
		if len(rest)%2 != 0 {
			return nil, fmt.Errorf("malformed benchmark line (odd value/unit pairing): %q", line)
		}
		for i := 0; i < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				return nil, fmt.Errorf("malformed value %q in line %q: %v", rest[i], line, err)
			}
			unit := rest[i+1]
			if unit == "ns/op" {
				b.NsPerOp = v
				continue
			}
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return rep, nil
}

// trimProcs strips the trailing -GOMAXPROCS suffix from a benchmark name.
func trimProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
