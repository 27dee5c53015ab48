package main

import (
	"context"
	"math"
	"net/http"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	colab "colab"
	"colab/internal/experiment"
	"colab/internal/metrics"
)

// heldOutSeed is a seed the benchmark was not tuned on; every verifier
// must pass on it, which shows the checks do not depend on seed 1.
const heldOutSeed = 7

func testEnv(t *testing.T, seed uint64) *env {
	t.Helper()
	e := &env{root: "..", work: t.TempDir(), seed: seed, window: 200 * time.Millisecond, clock: startVMClock()}
	t.Cleanup(e.clock.close)
	return e
}

// buildServe builds colab-serve from the checkout for the serve workload.
func buildServe(t *testing.T, e *env) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "colab-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/colab-serve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building colab-serve: %v\n%s", err, out)
	}
	e.serveBin = bin
}

// TestSmoke runs every workload once at a tiny size, untraced and traced,
// on a held-out seed, and requires every verifier to pass and every
// metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"paper-matrix", "numa-bigmachine", "serve-sweeps", "fleet-resweep"} {
		for _, trace := range []bool{false, true} {
			e := testEnv(t, heldOutSeed)
			e.trace = trace
			if name == "serve-sweeps" {
				buildServe(t, e)
			}
			rep, err := workloads[name](context.Background(), e)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if rep.failed != 0 || len(rep.problems) != 0 || rep.attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", name, trace, rep.attempted, rep.failed, rep.problems)
			}
			want := []string{"setup_s", "cells_per_s", "sim_events_per_s", "req_p50_ms", "req_p90_ms", "cpu_ms_per_cell", "peak_rss_mb"}
			if trace {
				want = want[:0]
				for _, m := range perLayer {
					want = append(want, m.name)
				}
			}
			for _, m := range want {
				v, ok := rep.metrics[m]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!trace && v.Value <= 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (reported %v)", name, trace, m, v, ok)
				}
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rep.metrics), len(want))
			}
		}
	}
}

// TestPaperMatrixGoldenSeed checks that at seed 1 the matrix reproduces
// the golden corpus lines and the paper-summary geomeans, and that the
// checks reject a perturbed score.
func TestPaperMatrixGoldenSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 312-cell matrix")
	}
	e := testEnv(t, 1)
	cells, names, err := paperCells(1)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := runMatrix(context.Background(), e, names)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{}
	if _, err := verifyMatrices(context.Background(), e, rep, cells, res, nil); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || len(rep.problems) != 0 {
		t.Fatalf("seed 1 matrix failed its checks: %v", rep.problems)
	}

	// Perturb one golden cell by one ulp: the golden check must catch it.
	bad := &colab.ExperimentResults{Cells: append([]colab.ExperimentResult(nil), res.Cells...)}
	for i, c := range bad.Cells {
		if c.Run.Workload == "Sync-2" && c.Run.Machine == "2B2S" && c.Run.Policy == "colab" {
			bad.Cells[i].Score.HANTT = math.Nextafter(c.Score.HANTT, 2)
		}
	}
	rep = &report{}
	if err := checkGolden(e, rep, bad, make([]bool, len(bad.Cells)), 1); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Errorf("golden check counted %d failures for one perturbed cell, want 1", rep.failed)
	}
	// A repeated matrix with one perturbed cell fails the repeat check.
	rep = &report{}
	if _, err := verifyMatrices(context.Background(), e, rep, cells, res, [][]int{matrixDiff(res, bad)}); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 1 {
		t.Errorf("repeat check counted %d failures, want 1", rep.failed)
	}
	// Scaling every colab score moves the summary geomean.
	scaled := &colab.ExperimentResults{Cells: append([]colab.ExperimentResult(nil), res.Cells...)}
	for i, c := range scaled.Cells {
		if c.Run.Policy == "colab" {
			scaled.Cells[i].Score.HANTT = c.Score.HANTT * 1.01
		}
	}
	rep = &report{}
	checkSummary(rep, scaled)
	if len(rep.problems) != 1 {
		t.Errorf("summary check reported %v for a 1%% colab shift, want one problem", rep.problems)
	}
}

func TestVerifyNUMARejectsWrongEventCount(t *testing.T) {
	combos := numaCombos(heldOutSeed)
	good := numaRun{combo: 0, events: 1000, done: true}
	bad := good
	bad.events++
	rep := &report{}
	verifyNUMA(rep, combos, []numaRun{good, good, bad}, map[int]numaRun{})
	if rep.attempted != 3 || rep.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", rep.attempted, rep.failed)
	}
	late := good
	late.sim.endTime++
	rep = &report{}
	verifyNUMA(rep, combos, []numaRun{good, late}, map[int]numaRun{})
	if rep.failed != 1 {
		t.Errorf("a different simulated end time counted %d failures, want 1", rep.failed)
	}
}

func TestVerifyServeRejectsPerturbedScore(t *testing.T) {
	q := serveRequestAt(heldOutSeed, 0)
	ref := map[string]metrics.MixScore{}
	var lines []serveLine
	for i := 0; i < q.cells(); i++ {
		k := string(rune('a' + i))
		ref[k] = metrics.MixScore{HANTT: 1.5, HSTP: 1.2}
		lines = append(lines, serveLine{CellKey: k, HANTT: 1.5, HSTP: 1.2})
	}
	ok := serveResult{index: 0, status: http.StatusOK, lines: lines}
	rep := &report{}
	verifyServe(rep, heldOutSeed, []serveResult{ok}, ref)
	if rep.failed != 0 {
		t.Fatalf("a correct request failed: %v", rep.problems)
	}
	perturbed := ok
	perturbed.lines = append([]serveLine(nil), lines...)
	perturbed.lines[0].HSTP = math.Nextafter(1.2, 2)
	errLine := ok
	errLine.lines = append([]serveLine(nil), lines...)
	errLine.lines[len(lines)-1].Error = "boom"
	rejected := serveResult{index: 0, status: http.StatusTooManyRequests}
	short := ok
	short.lines = lines[:len(lines)-1]
	for name, r := range map[string]serveResult{"perturbed": perturbed, "in-band error": errLine, "429": rejected, "short": short} {
		rep := &report{}
		verifyServe(rep, heldOutSeed, []serveResult{r}, ref)
		if rep.failed != 1 {
			t.Errorf("%s request counted %d failures, want 1", name, rep.failed)
		}
	}
}

func TestVerifyFleetRejectsPerturbedScore(t *testing.T) {
	_, names, err := paperCells(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	n := (len(names) + 1) * 4 * len(paperPolicies)
	res := &colab.ExperimentResults{}
	ref := map[string]metrics.MixScore{}
	for i := 0; i < n; i++ {
		k := experiment.CellKey{Scenario: "s", Policy: "linux", Machine: "m", Seed: uint64(i)}
		ref[k.String()] = metrics.MixScore{HANTT: 1, HSTP: 2}
		res.Cells = append(res.Cells, colab.ExperimentResult{Key: k, Score: metrics.MixScore{HANTT: 1, HSTP: 2}})
	}
	rep := &report{}
	verifyFleet(rep, heldOutSeed, names, []submission{{res: res}}, ref)
	if rep.failed != 0 {
		t.Fatalf("a correct submission failed: %v", rep.problems)
	}
	bad := &colab.ExperimentResults{Cells: append([]colab.ExperimentResult(nil), res.Cells...)}
	bad.Cells[5].Score.HANTT = math.Nextafter(1, 2)
	rep = &report{}
	verifyFleet(rep, heldOutSeed, names, []submission{{res: bad}, {diverged: true}}, ref)
	if rep.failed != 2 {
		t.Errorf("perturbed and diverged submissions counted %d failures, want 2", rep.failed)
	}
	if sameCells(res, bad) {
		t.Error("sameCells missed a one-ulp difference")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	if got := quantile(xs, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSpeedScalesToTheReferenceHost(t *testing.T) {
	s := &speed{probes: []float64{100, 120, 100}} // twice as slow as the reference
	if got := s.slow(0); got != 2 {
		t.Errorf("slow(0) = %v, want 2 (the faster probe around the segment)", got)
	}
	if got := s.ref(1, time.Second); got != 500*time.Millisecond {
		t.Errorf("ref(1, 1s) = %v, want 500ms", got)
	}
}
