package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	colab "colab"
	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/mathx"
	"colab/internal/workload"
)

// paperPolicies are the three schedulers of the paper's evaluation.
var paperPolicies = []string{"linux", "wash", "colab"}

// paperCells returns the paper's 312 cells for seed (26 Table 4
// compositions x the four evaluated machines x linux/wash/colab) in the
// cross-product order colab.Experiment returns them.
func paperCells(seed uint64) ([]cell, []string, error) {
	var cells []cell
	var names []string
	for _, comp := range workload.Compositions() {
		spec, err := workload.ResolveSpec(comp.Index)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, comp.Index)
		for _, cfg := range cpu.EvaluatedConfigs() {
			for _, p := range paperPolicies {
				cells = append(cells, cell{spec: spec, cfg: cfg, policy: p, seed: seed})
			}
		}
	}
	return cells, names, nil
}

// cellsPerComposition is the width of one composition's row in the
// matrix stream (4 machines x 3 policies).
const cellsPerComposition = 12

// runMatrix runs the paper matrix once through the public
// colab.Experiment at the default worker count, with a checkpoint journal
// in a fresh temp dir and no cell cache. It returns the cells and, for
// each composition, the time from the start of the sweep until the
// observer delivered the last cell of the composition's row: how long a
// user waiting on that composition's results waits.
func runMatrix(ctx context.Context, e *env, names []string) (*colab.ExperimentResults, matrixTimes, error) {
	var mt matrixTimes
	dir, err := os.MkdirTemp(e.work, "matrix-*")
	if err != nil {
		return nil, mt, err
	}
	defer os.RemoveAll(dir)
	delivered := 0
	mt.start = time.Now()
	res, err := colab.NewExperiment(
		colab.WithWorkloads(names...),
		colab.WithMachines(colab.EvaluatedConfigs()...),
		colab.WithPolicies(paperPolicies...),
		colab.WithSeeds(e.seed),
		colab.WithCheckpoint(filepath.Join(dir, "journal.ndjson")),
		colab.WithObserver(func(colab.ExperimentResult) {
			delivered++
			if delivered%cellsPerComposition == 0 {
				mt.rows = append(mt.rows, time.Now())
			}
		}),
	).Run(ctx)
	mt.end = time.Now()
	return res, mt, err
}

// matrixTimes are the instants of one matrix: its start, the delivery of
// each composition row's last cell, and its end.
type matrixTimes struct {
	start, end time.Time
	rows       []time.Time
}

func runPaperMatrix(ctx context.Context, e *env) (*report, error) {
	rep := &report{}
	setupS, trainMS, err := repeatSetup(e, func(rep int) (time.Duration, error) { return timedTrain(rep == 0) })
	if err != nil {
		return nil, err
	}
	cells, names, err := paperCells(e.seed)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return tracePaperMatrix(ctx, e, rep, cells, names, trainMS)
	}

	// Measured phase: whole matrices until the window is used up, with a
	// host probe before the first and after every matrix. Only the first
	// matrix's cells are kept; each later one is compared with it on
	// arrival, so memory does not grow with the number of matrices. The
	// peak resident set is taken per matrix and the median reported: where
	// the garbage collector's cycles fall moved a whole run's peak by up to
	// half.
	var (
		first *colab.ExperimentResults
		diffs [][]int
		times []matrixTimes
		cpus  []time.Duration
		peaks []float64
	)
	sp := &speed{e: e}
	sp.mark()
	start := time.Now()
	for first == nil || time.Since(start) < e.window {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		cpu0, _ := selfUsage()
		res, mt, err := runMatrix(ctx, e, names)
		if err != nil {
			return nil, err
		}
		cpu1, _ := selfUsage()
		peak, err := peakRSS()
		if err != nil {
			return nil, err
		}
		sp.mark()
		cpus = append(cpus, cpu1-cpu0)
		peaks = append(peaks, peak)
		if first == nil {
			first = res
		} else {
			diffs = append(diffs, matrixDiff(first, res))
		}
		times = append(times, mt)
	}
	e.clock.sample()

	// Verification, outside the measured window.
	ref, err := verifyMatrices(ctx, e, rep, cells, first, diffs)
	if err != nil {
		return nil, err
	}
	var events uint64
	for _, o := range ref {
		events += o.events
	}
	var rates, evRates, reqMS []float64
	var cpu time.Duration
	for i, mt := range times {
		d := sp.ref(i, e.took(mt.start, mt.end)).Seconds()
		rates = append(rates, float64(len(cells))/d)
		evRates = append(evRates, float64(events)/d)
		for _, r := range mt.rows {
			reqMS = append(reqMS, ms(sp.ref(i, e.took(mt.start, r))))
		}
		cpu += sp.ref(i, cpus[i])
	}
	endToEnd{
		setupS:       setupS / sp.slow(0),
		cellsPerS:    median(rates),
		eventsPerS:   median(evRates),
		reqMS:        reqMS,
		cpuPerCell:   cpu / time.Duration(len(cells)*len(times)),
		peakRSSBytes: median(peaks),
	}.apply(rep)
	return rep, nil
}

// matrixDiff returns the indexes of the cells of b that differ from a's,
// bit for bit (every index when the matrices differ in size).
func matrixDiff(a, b *colab.ExperimentResults) []int {
	var out []int
	for i := range a.Cells {
		if len(b.Cells) != len(a.Cells) || b.Cells[i].Key != a.Cells[i].Key || !sameScore(b.Cells[i].Score, a.Cells[i].Score) {
			out = append(out, i)
		}
	}
	return out
}

// verifyMatrices checks every matrix of the run: each repeat must equal
// the first bit for bit (diffs lists, per repeat, the cells that did not),
// the first must equal the benchmark's own layer-by-layer recomputation,
// and at seed 1 the golden corpus lines and the paper-summary geomeans
// must reproduce. It returns the recomputation, whose simulated event
// counts sim_events_per_s uses.
func verifyMatrices(ctx context.Context, e *env, rep *report, cells []cell, first *colab.ExperimentResults, diffs [][]int) ([]cellOut, error) {
	runs := 1 + len(diffs)
	rep.attempted += len(cells) * runs
	if len(first.Cells) != len(cells) {
		rep.fail(len(cells)*runs, "matrix returned %d cells, want %d", len(first.Cells), len(cells))
		return nil, nil
	}
	bad := make([]bool, len(cells))
	for ri, d := range diffs {
		for _, i := range d {
			c := first.Cells[i]
			rep.fail(1, "matrix %d cell %d (%s/%s/%s) differs from matrix 1", ri+2, i, c.Run.Workload, c.Run.Machine, c.Run.Policy)
		}
	}
	cr, err := newCellRunner(nil)
	if err != nil {
		return nil, err
	}
	ref, err := cr.scoreAll(ctx, cells)
	if err != nil {
		return nil, err
	}
	for i, c := range first.Cells {
		want := cells[i]
		if c.Run.Workload != want.spec.Name || c.Run.Machine != want.cfg.Name || c.Run.Policy != want.policy || c.Key != want.key() {
			bad[i] = true
			rep.fail(runs, "matrix cell %d is %v, want %s/%s/%s", i, c.Run, want.spec.Name, want.cfg.Name, want.policy)
			continue
		}
		if !sameScore(c.Score, ref[i].score) {
			bad[i] = true
			rep.fail(runs, "cell %s/%s/%s scored %v by Experiment but %v layer by layer", c.Run.Workload, c.Run.Machine, c.Run.Policy, c.Score, ref[i].score)
		}
	}
	if e.seed == 1 {
		if err := checkGolden(e, rep, first, bad, runs); err != nil {
			return nil, err
		}
		checkSummary(rep, first)
	}
	return ref, nil
}

// goldenPath is the committed regression corpus of the two-tier paper
// configs at seed 1.
func goldenPath(e *env) string {
	return filepath.Join(e.root, "internal", "experiment", "testdata", "golden_paper_configs.txt")
}

// goldenMixLines returns the corpus's mix lines for the paper's three
// policies, keyed by "composition|machine|policy".
func goldenMixLines(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := make(map[string]string)
	policies := map[string]bool{"linux": true, "wash": true, "colab": true}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "mix|") {
			continue
		}
		head, _, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		f := strings.Split(head, "|")
		if len(f) == 4 && policies[f[3]] {
			want[strings.Join(f[1:], "|")] = line
		}
	}
	return want, sc.Err()
}

// goldenLine renders a cell the way the corpus does.
func goldenLine(c colab.ExperimentResult) string {
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("mix|%s|%s|%s HANTT=%s HSTP=%s", c.Run.Workload, c.Run.Machine, c.Run.Policy, ff(c.Score.HANTT), ff(c.Score.HSTP))
}

// goldenCells is how many corpus lines overlap the paper matrix: Sync-2,
// NSync-2, Comm-2, Comp-2 and Rand-7 x 4 machines x 3 policies.
const goldenCells = 60

func checkGolden(e *env, rep *report, res *colab.ExperimentResults, bad []bool, runs int) error {
	want, err := goldenMixLines(goldenPath(e))
	if err != nil {
		return err
	}
	if len(want) != goldenCells {
		rep.fail(0, "golden corpus has %d paper-policy mix lines, want %d", len(want), goldenCells)
	}
	matched := 0
	for i, c := range res.Cells {
		line, ok := want[c.Run.Workload+"|"+c.Run.Machine+"|"+c.Run.Policy]
		if !ok {
			continue
		}
		matched++
		if got := goldenLine(c); got != line && !bad[i] {
			bad[i] = true
			rep.fail(runs, "golden mismatch: got %q, want %q", got, line)
		}
	}
	if matched != len(want) {
		rep.fail(0, "matrix covers %d of %d golden lines", matched, len(want))
	}
	return nil
}

// Paper-summary geomeans of H_ANTT normalised to linux over the whole
// matrix at seed 1 (BenchmarkSummaryAll's headline numbers).
const (
	wantCOLABGeomean = "0.8727"
	wantWASHGeomean  = "0.9661"
)

func summaryGeomeans(res *colab.ExperimentResults) (colabG, washG float64, err error) {
	norm, err := res.Normalized("linux")
	if err != nil {
		return 0, 0, err
	}
	var ca, wa []float64
	for _, c := range norm.Cells {
		switch c.Run.Policy {
		case "colab":
			ca = append(ca, c.Score.HANTT)
		case "wash":
			wa = append(wa, c.Score.HANTT)
		}
	}
	return mathx.GeoMean(ca), mathx.GeoMean(wa), nil
}

func checkSummary(rep *report, res *colab.ExperimentResults) {
	cg, wg, err := summaryGeomeans(res)
	if err != nil {
		rep.fail(0, "summary: %v", err)
		return
	}
	if got := fmt.Sprintf("%.4f", cg); got != wantCOLABGeomean {
		rep.fail(0, "colab H_ANTT geomean vs linux is %s, want %s", got, wantCOLABGeomean)
	}
	if got := fmt.Sprintf("%.4f", wg); got != wantWASHGeomean {
		rep.fail(0, "wash H_ANTT geomean vs linux is %s, want %s", got, wantWASHGeomean)
	}
}

// tracePaperMatrix is the traced pass: per round, the matrix through
// colab.Experiment, then the same cells computed layer by layer untraced
// and traced. All three must agree bit for bit; the two layer-by-layer
// passes give the trace overhead.
func tracePaperMatrix(ctx context.Context, e *env, rep *report, cells []cell, names []string, trainMS float64) (*report, error) {
	tr := newTracer()
	var untraced, traced time.Duration
	gc0 := readGC()
	var (
		first  *colab.ExperimentResults
		diffs  [][]int
		rounds int
	)
	start := time.Now()
	for ; rounds == 0 || time.Since(start) < e.window; rounds++ {
		res, _, err := runMatrix(ctx, e, names)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = res
		} else {
			diffs = append(diffs, matrixDiff(first, res))
		}

		want, d, err := matrixPass(ctx, e, nil, cells, names)
		if err != nil {
			return nil, err
		}
		untraced += d
		got, d, err := matrixPass(ctx, e, tr, cells, names)
		if err != nil {
			return nil, err
		}
		traced += d
		rep.attempted += len(cells)
		for i := range cells {
			if !sameScore(got[i].score, want[i].score) || !sameScore(got[i].score, res.Cells[i].Score) || got[i].events != want[i].events || got[i].sim != want[i].sim {
				rep.fail(1, "traced cell %d (%s/%s/%s) differs from the untraced run", i, cells[i].spec.Name, cells[i].cfg.Name, cells[i].policy)
			}
		}
	}
	gc1 := readGC()
	if _, err := verifyMatrices(ctx, e, rep, cells, first, diffs); err != nil {
		return nil, err
	}
	spans := tr.all()
	rep.spans = spans
	l := newLayers(spans)
	l.set("perfmodel.train_ms", trainMS)
	l.set("trace.overhead_ratio", traced.Seconds()/untraced.Seconds())
	l.apply(rep)
	setGoMetrics(rep, gc0, gc1, len(cells)*rounds*3, 0)
	return rep, nil
}

// matrixPass computes the matrix layer by layer: scenario parsing, the
// batch plan, the checkpoint journal (opened, recorded per cell, then
// replayed), and per cell the builds, machines, runs and scoring. With a
// tracer every one of those seams is timed, as are the scheduler and
// predictor calls; with nil it does the same work untimed.
func matrixPass(ctx context.Context, e *env, tr *tracer, cells []cell, names []string) ([]cellOut, time.Duration, error) {
	dir, err := os.MkdirTemp(e.work, "traced-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal.ndjson")
	t0 := time.Now()
	root := tr.start("experiment.matrix", 0)
	for _, n := range names {
		o := tr.start("workload.parse", root.id())
		_, err := workload.ResolveSpec(n)
		o.end()
		if err != nil {
			return nil, 0, err
		}
	}
	specs := make([]workload.Spec, 0, len(names))
	for _, n := range names {
		s, err := workload.ResolveSpec(n)
		if err != nil {
			return nil, 0, err
		}
		specs = append(specs, s)
	}
	o := tr.start("experiment.plan", root.id())
	_, err = (&experiment.Batch{Scenarios: specs, Configs: cpu.EvaluatedConfigs(), Policies: paperPolicies, Seeds: []uint64{e.seed}}).Plan()
	o.end()
	if err != nil {
		return nil, 0, err
	}
	o = tr.start("experiment.journal_open", root.id())
	j, err := experiment.OpenJournal(path)
	o.end()
	if err != nil {
		return nil, 0, err
	}
	cr, err := newCellRunner(tr)
	if err != nil {
		j.Close()
		return nil, 0, err
	}
	cr.journal = j
	out, err := cr.scoreAll(ctx, cells)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	e.clock.sample()
	d := e.took(t0, time.Now())
	o = tr.start("experiment.journal_replay", root.id())
	j, err = experiment.OpenJournal(path)
	o.end()
	if err != nil {
		return nil, 0, err
	}
	replayed := j.Len()
	j.Close()
	root.end()
	if replayed != len(cells) {
		return nil, 0, fmt.Errorf("journal replayed %d cells, want %d", replayed, len(cells))
	}
	return out, d, nil
}
