package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: colab
cpu: Example CPU
BenchmarkTable2TrainSpeedupModel-8   	       1	  55113272 ns/op	         0.975 R2
BenchmarkTable3Characterization-8    	       1	   1201000 ns/op	  524288 B/op	    1024 allocs/op
BenchmarkSummaryAll-8                	       1	9000000000 ns/op	         0.621 colab-H_ANTT-vs-linux	         0.811 wash-H_ANTT-vs-linux
PASS
ok  	colab	12.345s
`

func TestParseBenchOutput(t *testing.T) {
	rep, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}
	b0 := rep.Benchmarks[0]
	if b0.Name != "BenchmarkTable2TrainSpeedupModel" || b0.Iterations != 1 || b0.NsPerOp != 55113272 {
		t.Errorf("first benchmark parsed as %+v", b0)
	}
	if got := b0.Metrics["R2"]; got != 0.975 {
		t.Errorf("R2 metric %v, want 0.975", got)
	}
	b2 := rep.Benchmarks[2]
	if got := b2.Metrics["colab-H_ANTT-vs-linux"]; got != 0.621 {
		t.Errorf("custom metric %v, want 0.621", got)
	}
	if _, ok := rep.Benchmarks[1].Metrics["allocs/op"]; !ok {
		t.Error("allocs/op metric lost")
	}
	if rep.GoVersion == "" || rep.GOOS == "" {
		t.Error("environment metadata missing")
	}
}

func TestParseRejectsEmptyAndMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\nok colab 1s\n")); err == nil {
		t.Error("empty bench output must be an error")
	}
	if _, err := Parse(strings.NewReader("BenchmarkX-8 1 12 ns/op trailing\n")); err == nil {
		t.Error("odd value/unit pairing must be an error")
	}
	if _, err := Parse(strings.NewReader("BenchmarkX-8 1 notanumber ns/op\n")); err == nil {
		t.Error("non-numeric value must be an error")
	}
}

func TestRunWritesJSONFile(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	out := filepath.Join(dir, "BENCH_ci.json")
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", in, "-out", out}, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("artefact is not valid JSON: %v", err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("artefact holds %d benchmarks, want 3", len(rep.Benchmarks))
	}
}

func TestTrimProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo-8":      "BenchmarkFoo",
		"BenchmarkFoo-128":    "BenchmarkFoo",
		"BenchmarkFoo":        "BenchmarkFoo",
		"BenchmarkFoo-bar":    "BenchmarkFoo-bar",
		"BenchmarkFoo-bar-16": "BenchmarkFoo-bar",
	}
	for in, want := range cases {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func mkReport(ns map[string]float64) *Report {
	rep := &Report{}
	var names []string
	for name := range ns {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name, Iterations: 1, NsPerOp: ns[name]})
	}
	return rep
}

func TestTrendPassesWithinTolerance(t *testing.T) {
	prev := mkReport(map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200, "BenchmarkGone": 10})
	cur := mkReport(map[string]float64{"BenchmarkA": 105, "BenchmarkB": 150, "BenchmarkNew": 42})
	var out bytes.Buffer
	if err := Trend(&out, prev, cur, 10); err != nil {
		t.Fatalf("within-tolerance trend failed: %v\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"trend gate passed", "NEW", "BenchmarkNew", "REMOVED", "BenchmarkGone", "+5.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("trend output misses %q:\n%s", want, s)
		}
	}
}

func TestTrendFailsOnRegression(t *testing.T) {
	prev := mkReport(map[string]float64{"BenchmarkA": 100})
	cur := mkReport(map[string]float64{"BenchmarkA": 125})
	var out bytes.Buffer
	err := Trend(&out, prev, cur, 10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA") || !strings.Contains(err.Error(), "+25.0%") {
		t.Fatalf("25%% regression must fail the gate naming the benchmark, got %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("trend output misses REGRESSED line:\n%s", out.String())
	}
}

func TestRunTrendEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ns float64) string {
		path := filepath.Join(dir, name)
		data, err := json.MarshalIndent(mkReport(map[string]float64{"BenchmarkA": ns}), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	prev := write("prev.json", 100)
	curOK := write("ok.json", 102)
	curBad := write("bad.json", 200)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-injson", curOK, "-trend", prev}, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("ok trend run failed: %v", err)
	}
	if err := run([]string{"-injson", curBad, "-trend", prev}, strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Fatal("regressed trend run must fail")
	}
	if err := run([]string{"-injson", curBad, "-trend", prev, "-max-regress", "150"}, strings.NewReader(""), &stdout, &stderr); err != nil {
		t.Fatalf("loosened tolerance must pass: %v", err)
	}
}

func TestTrendNormalisesRunnerSpeedShift(t *testing.T) {
	// Six benchmarks all ~30% slower (a slower runner) must pass; a seventh
	// that is 30% slower on top of that must still fail.
	prev := map[string]float64{}
	cur := map[string]float64{}
	for _, name := range []string{"BenchmarkA", "BenchmarkB", "BenchmarkC", "BenchmarkD", "BenchmarkE", "BenchmarkF"} {
		prev[name] = 1000
		cur[name] = 1300
	}
	var out bytes.Buffer
	if err := Trend(&out, mkReport(prev), mkReport(cur), 10); err != nil {
		t.Fatalf("uniform 30%% slowdown must be normalised away: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "runner speed shift") {
		t.Errorf("normalisation not reported:\n%s", out.String())
	}
	prev["BenchmarkG"] = 1000
	cur["BenchmarkG"] = 1300 * 1.3
	out.Reset()
	err := Trend(&out, mkReport(prev), mkReport(cur), 10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkG") {
		t.Fatalf("benchmark-specific regression must still fail after normalisation, got %v\n%s", err, out.String())
	}
}

// A benchmark reporting a "/sec" throughput metric is higher-is-better:
// a throughput drop fails the gate even when ns/op is flat, and a
// throughput rise passes even when ns/op grew (a fixed-duration
// benchmark's ns/op says nothing about its throughput).
func TestTrendGatesThroughputMetricsHigherIsBetter(t *testing.T) {
	bench := func(ns, eps float64) *Report {
		return &Report{Benchmarks: []Benchmark{{
			Name: "BenchmarkKernelHotPath", Iterations: 1, NsPerOp: ns,
			Metrics: map[string]float64{"events/sec": eps},
		}}}
	}
	var out bytes.Buffer
	err := Trend(&out, bench(1000, 2_000_000), bench(1000, 1_400_000), 10)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkKernelHotPath") {
		t.Fatalf("30%% throughput drop must fail the gate, got %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "events/sec") {
		t.Errorf("gate output does not report the gated unit:\n%s", out.String())
	}
	out.Reset()
	if err := Trend(&out, bench(1000, 2_000_000), bench(3000, 2_500_000), 10); err != nil {
		t.Fatalf("throughput rise must pass regardless of ns/op: %v\n%s", err, out.String())
	}
	// The metric must only gate when both runs report it: against an old
	// report without events/sec the benchmark falls back to ns/op.
	out.Reset()
	old := &Report{Benchmarks: []Benchmark{{Name: "BenchmarkKernelHotPath", Iterations: 1, NsPerOp: 1000}}}
	if err := Trend(&out, old, bench(1050, 2_000_000), 10); err != nil {
		t.Fatalf("ns/op fallback within tolerance must pass: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ns/op") {
		t.Errorf("fallback gate did not report ns/op:\n%s", out.String())
	}
}

// The runner speed-shift normalisation must fold throughput benchmarks in
// as cost ratios: a uniformly slower runner lowers every events/sec alike
// and must not trip the gate.
func TestTrendNormalisesThroughputSpeedShift(t *testing.T) {
	mk := func(scale float64) *Report {
		rep := &Report{}
		for _, name := range []string{"BenchmarkA", "BenchmarkB", "BenchmarkC"} {
			rep.Benchmarks = append(rep.Benchmarks, Benchmark{Name: name, Iterations: 1, NsPerOp: 1000 * scale})
		}
		for _, name := range []string{"BenchmarkT1", "BenchmarkT2", "BenchmarkT3"} {
			rep.Benchmarks = append(rep.Benchmarks, Benchmark{
				Name: name, Iterations: 1, NsPerOp: 500,
				Metrics: map[string]float64{"events/sec": 1_000_000 / scale},
			})
		}
		return rep
	}
	var out bytes.Buffer
	if err := Trend(&out, mk(1), mk(1.3), 10); err != nil {
		t.Fatalf("uniform 30%% slowdown across ns/op and events/sec must be normalised away: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "runner speed shift") {
		t.Errorf("normalisation not reported:\n%s", out.String())
	}
}

// -out must be honoured even when -trend runs in the same invocation and
// its gate fails: the converted artefact is left for inspection and
// upload.
func TestOutWrittenAlongsideTrend(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "bench.txt")
	outPath := filepath.Join(dir, "BENCH_ci.json")
	prev := filepath.Join(dir, "prev.json")
	if err := os.WriteFile(in, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	// The sample's BenchmarkSummaryAll takes 9e9 ns/op: +800% against this
	// baseline.
	data, err := json.Marshal(mkReport(map[string]float64{"BenchmarkSummaryAll": 1e9}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(prev, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", in, "-out", outPath, "-trend", prev}, strings.NewReader(""), &stdout, &stderr); err == nil {
		t.Fatal("regressed trend run must fail")
	}
	rep, err := loadReport(outPath)
	if err != nil {
		t.Fatalf("-out skipped when the -trend gate failed: %v", err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("-out artefact holds %d benchmarks, want 3", len(rep.Benchmarks))
	}
}

// The history ring is gone: its flags are unknown.
func TestHistoryFlagsRejected(t *testing.T) {
	for _, flag := range []string{"-append", "-history-size", "-commit"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-in", "bench.txt", flag, "x"}, strings.NewReader(""), &stdout, &stderr)
		if err == nil || !strings.Contains(stderr.String(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: err %v, stderr %q; want an unknown-flag error", flag, err, stderr.String())
		}
	}
}
