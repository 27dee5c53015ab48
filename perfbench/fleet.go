package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	colab "colab"
	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/metrics"
	"colab/internal/workload"
)

// fleetPeriod is how often the resubmitted sweep changes: the first
// submission of every period adds one composition pinned to a fresh seed
// (12 new cells); the other fleetPeriod-1 submissions repeat it and are
// answered entirely from the worker caches.
const fleetPeriod = 64

// fleetExtra is the scenario added to the grid in period k.
func fleetExtra(seed uint64, k int) string {
	comps := workload.Compositions()
	return fmt.Sprintf("%s@seed=%d", comps[k%len(comps)].Index, seed*1000+uint64(k)+1)
}

// fleetSweep returns the workloads of submission i (i = -1 is the cold
// sweep that precedes the measured window): the paper grid plus the
// period's extra scenario.
func fleetSweep(seed uint64, names []string, i int) []string {
	k := 0
	if i >= 0 {
		k = i / fleetPeriod
	}
	return append(append([]string(nil), names...), fleetExtra(seed, k))
}

// fleet is one in-process coordinator with two workers on loopback.
type fleet struct {
	coord     *colab.Fleet
	workers   []*colab.FleetWorker
	servers   []*http.Server
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	transport *countingTransport
}

func serveOn(h http.Handler) (*http.Server, string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(l)
	return srv, "http://" + l.Addr().String(), nil
}

// startFleet brings a fleet up and waits until both workers registered.
// Dispatches go through a counting transport; tr, when set, records a span
// per dispatch.
func startFleet(ctx context.Context, tr *tracer) (*fleet, error) {
	f := &fleet{transport: &countingTransport{base: &http.Transport{}, tr: tr}}
	f.coord = colab.NewFleet(colab.FleetOptions{HTTPClient: &http.Client{Transport: f.transport}})
	srv, coordURL, err := serveOn(f.coord)
	if err != nil {
		return nil, err
	}
	f.servers = append(f.servers, srv)
	rctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for w := 0; w < 2; w++ {
		worker := colab.NewFleetWorker(nil)
		srv, url, err := serveOn(worker)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, worker)
		f.servers = append(f.servers, srv)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			colab.RegisterFleetWorker(rctx, http.DefaultClient, coordURL, url, 200*time.Millisecond)
		}()
	}
	wctx, wcancel := context.WithTimeout(ctx, 20*time.Second)
	defer wcancel()
	if err := f.coord.WaitWorkers(wctx, 2); err != nil {
		f.stop()
		return nil, fmt.Errorf("fleet workers did not register: %w", err)
	}
	return f, nil
}

// stop deregisters the heartbeat loops and shuts the servers down.
func (f *fleet) stop() {
	f.cancel()
	f.wg.Wait()
	for _, s := range f.servers {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = s.Shutdown(sctx)
		cancel()
	}
}

// submission is the outcome of one sweep submitted to the fleet.
type submission struct {
	index      int
	start, end time.Time
	firstCell  time.Duration
	res        *colab.ExperimentResults
	cells      int
	diverged   bool // differed from the first submission of its period
	err        error
}

// submit runs one sweep through the fleet and waits for all of its cells.
func (f *fleet) submit(ctx context.Context, seed uint64, names []string, i int, tr *tracer) submission {
	s := submission{index: i}
	o := tr.start("fleet.submission", 0)
	defer o.end()
	f.transport.parent.Store(o.id())
	sweep := fleetSweep(seed, names, i)
	if tr != nil {
		for _, w := range sweep {
			po := tr.start("workload.parse", o.id())
			_, err := workload.ResolveSpec(w)
			po.end()
			if err != nil {
				s.err = err
				return s
			}
		}
	}
	t0 := time.Now()
	s.start = t0
	first := true
	s.res, s.err = colab.NewExperiment(
		colab.WithWorkloads(sweep...),
		colab.WithMachines(colab.EvaluatedConfigs()...),
		colab.WithPolicies(paperPolicies...),
		colab.WithSeeds(seed),
		colab.WithWorkers(1),
		colab.WithFleet(f.coord),
		colab.WithObserver(func(colab.ExperimentResult) {
			if first {
				s.firstCell = time.Since(t0)
				first = false
			}
		}),
	).Run(ctx)
	s.end = time.Now()
	o.attr("first_cell_ms", ms(s.firstCell))
	return s
}

// fleetSetup is one repetition of the fleet's one-time cost: train the
// models, bring the coordinator and workers up, and run the first small
// sweep.
func fleetSetup(ctx context.Context, rep int) (*fleet, time.Duration, error) {
	train, err := timedTrain(rep == 0)
	if err != nil {
		return nil, 0, err
	}
	f, err := startFleet(ctx, nil)
	if err != nil {
		return nil, 0, err
	}
	_, err = colab.NewExperiment(colab.WithWorkloads("Sync-1"), colab.WithPolicies("colab-dvfs"),
		colab.WithWorkers(1), colab.WithFleet(f.coord)).Run(ctx)
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	return f, train, nil
}

// fleetPass submits the cold sweep, then sweeps i = 0, 1, ... until stop
// reports true. Only the first submission of each period keeps its cells;
// the others are compared with it on arrival and dropped, so memory does
// not grow with the number of submissions.
func fleetPass(ctx context.Context, f *fleet, seed uint64, names []string, stop func(i int) bool, tr *tracer) (submission, []submission) {
	cold := f.submit(ctx, seed, names, -1, nil)
	var subs []submission
	var first *colab.ExperimentResults
	for i := 0; !stop(i) && ctx.Err() == nil; i++ {
		s := f.submit(ctx, seed, names, i, tr)
		if s.err == nil {
			s.cells = len(s.res.Cells)
			if i%fleetPeriod == 0 {
				first = s.res
			} else {
				s.diverged = !sameCells(s.res, first)
				s.res = nil
			}
		}
		subs = append(subs, s)
	}
	return cold, subs
}

// sameCells reports whether two result sets hold the same cells with
// bit-identical scores, in the same order.
func sameCells(a, b *colab.ExperimentResults) bool {
	if a == nil || b == nil || len(a.Cells) != len(b.Cells) {
		return false
	}
	for i, c := range a.Cells {
		if c.Key != b.Cells[i].Key || !sameScore(c.Score, b.Cells[i].Score) {
			return false
		}
	}
	return true
}

// fleetReference scores every cell the submissions can return through a
// local experiment.Batch and counts each cell's simulated events.
func fleetReference(ctx context.Context, seed uint64, names []string, periods int) (map[string]metrics.MixScore, map[string]uint64, error) {
	all := append([]string(nil), names...)
	for k := 0; k < periods; k++ {
		all = append(all, fleetExtra(seed, k))
	}
	var specs []workload.Spec
	var cells []cell
	for _, n := range all {
		s, err := workload.ResolveSpec(n)
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, s)
		for _, cfg := range cpu.EvaluatedConfigs() {
			for _, p := range paperPolicies {
				cells = append(cells, cell{spec: s, cfg: cfg, policy: p, seed: seed})
			}
		}
	}
	ref, err := batchReference(ctx, specs, cpu.EvaluatedConfigs(), paperPolicies, []uint64{seed})
	if err != nil {
		return nil, nil, err
	}
	cr, err := newCellRunner(nil)
	if err != nil {
		return nil, nil, err
	}
	events, err := cr.mixEvents(ctx, cells)
	return ref, events, err
}

// verifyFleet checks every submission: no error, the full cell count,
// and every cell equal to the local Batch reference for its CellKey.
func verifyFleet(rep *report, seed uint64, names []string, subs []submission, ref map[string]metrics.MixScore) {
	rep.attempted += len(subs)
	want := (len(names) + 1) * len(cpu.EvaluatedConfigs()) * len(paperPolicies)
	for _, s := range subs {
		switch {
		case s.err != nil:
			rep.fail(1, "submission %d: %v", s.index, s.err)
			continue
		case s.diverged:
			rep.fail(1, "submission %d differs from the first submission of its period", s.index)
			continue
		case s.res == nil:
			continue // equal to its period's first submission, checked below
		}
		if len(s.res.Cells) != want {
			rep.fail(1, "submission %d: %d cells, want %d", s.index, len(s.res.Cells), want)
			continue
		}
		for _, c := range s.res.Cells {
			r, ok := ref[c.Key.String()]
			if !ok || !sameScore(r, c.Score) {
				rep.fail(1, "submission %d: cell %s scored %v, reference %v (known %v)", s.index, c.Key, c.Score, r, ok)
				break
			}
		}
	}
}

// checkRetries counts dispatches beyond one per shard as failures: on a
// healthy loopback fleet every shard must succeed first time.
func checkRetries(rep *report, f *fleet, subs int) int64 {
	retries := f.transport.requests.Load() - int64(2*subs)
	if retries != 0 {
		rep.fail(int(max(retries, 0)), "%d fleet dispatches beyond one per shard", retries)
	}
	return retries
}

func runFleet(ctx context.Context, e *env) (*report, error) {
	rep := &report{}
	var f *fleet
	setupS, trainMS, err := repeatSetup(e, func(r int) (time.Duration, error) {
		if f != nil {
			f.stop()
		}
		var train time.Duration
		var err error
		f, train, err = fleetSetup(ctx, r)
		return train, err
	})
	if err != nil {
		if f != nil {
			f.stop()
		}
		return nil, err
	}
	defer func() { f.stop() }()
	_, names, err := paperCells(e.seed)
	if err != nil {
		return nil, err
	}
	if e.trace {
		return traceFleet(ctx, e, rep, &f, names, trainMS)
	}

	// Measured phase: segments of about segmentLen with a host probe
	// before the first and after every segment, between two submissions.
	// The peak resident set is taken per segment and the median reported,
	// for the same reason as in paper-matrix.
	f.transport.requests.Store(0)
	sp := &speed{e: e}
	var (
		start, segStart time.Time
		seg             int
		segCPU          time.Duration
		segOf           []int // the segment of each submission
		wall, cpu       time.Duration
		peaks           []float64
		peakErr         error
	)
	openSeg := func() {
		if err := resetPeakRSS(); err != nil {
			peakErr = err
		}
		segCPU, _ = selfUsage()
		segStart = time.Now()
	}
	closeSeg := func() {
		end := time.Now()
		c, _ := selfUsage()
		peak, err := peakRSS()
		if err != nil {
			peakErr = err
		}
		peaks = append(peaks, peak)
		sp.mark()
		wall += sp.ref(seg, e.took(segStart, end))
		cpu += sp.ref(seg, c-segCPU)
		seg++
	}
	cold, subs := fleetPass(ctx, f, e.seed, names, func(i int) bool {
		switch {
		case i == 0:
			sp.mark()
			start = time.Now()
			openSeg()
		case time.Since(start) >= e.window:
			closeSeg()
			return true
		case time.Since(segStart) >= segmentLen:
			closeSeg()
			openSeg()
		}
		segOf = append(segOf, seg)
		return false
	}, nil)
	if peakErr != nil {
		return nil, peakErr
	}
	checkRetries(rep, f, len(subs)+1)
	ref, events, err := fleetReference(ctx, e.seed, names, len(subs)/fleetPeriod+1)
	if err != nil {
		return nil, err
	}
	verifyFleet(rep, e.seed, names, append([]submission{cold}, subs...), ref)
	var cells int
	var ev uint64
	lat := make([]float64, 0, len(subs))
	// Every submission of a period returns the cells of the period's first
	// submission (checked above), so it represents the same simulated work.
	var periodEvents uint64
	for i, s := range subs {
		if s.res != nil {
			periodEvents = 0
			for _, c := range s.res.Cells {
				periodEvents += events[c.Key.String()]
			}
		}
		if s.err != nil {
			continue
		}
		cells += s.cells
		ev += periodEvents
		lat = append(lat, ms(sp.ref(segOf[i], e.took(s.start, s.end))))
	}
	if cells == 0 {
		return nil, errors.New("no cells returned in the measured window")
	}
	endToEnd{
		setupS:       setupS / sp.slow(0),
		cellsPerS:    float64(cells) / wall.Seconds(),
		eventsPerS:   float64(ev) / wall.Seconds(),
		reqMS:        lat,
		cpuPerCell:   cpu / time.Duration(cells),
		peakRSSBytes: median(peaks),
	}.apply(rep)
	return rep, nil
}

// traceFleet submits for half the window untraced on the set-up fleet,
// then replays the same submissions traced on a fresh fleet. Both passes
// must return the same cells bit for bit.
func traceFleet(ctx context.Context, e *env, rep *report, fp **fleet, names []string, trainMS float64) (*report, error) {
	f := *fp
	gc0 := readGC()
	var start time.Time
	var dPlain time.Duration
	_, plain := fleetPass(ctx, f, e.seed, names, func(i int) bool {
		if i == 0 {
			start = time.Now()
			return false
		}
		if time.Since(start) >= e.window/2 {
			end := time.Now()
			e.clock.sample()
			dPlain = e.took(start, end)
			return true
		}
		return false
	}, nil)
	n := len(plain)

	tr := newTracer()
	fresh, err := startFleet(ctx, tr)
	if err != nil {
		return nil, err
	}
	f.stop()
	*fp = fresh
	var dTraced time.Duration
	var planMS []float64
	cold, traced := fleetPass(ctx, fresh, e.seed, names, func(i int) bool {
		if i == 0 {
			fresh.transport.requests.Store(0)
			fresh.transport.bytes.Store(0)
			start = time.Now()
		}
		if i >= n {
			end := time.Now()
			e.clock.sample()
			dTraced = e.took(start, end)
			return true
		}
		return false
	}, tr)
	gc1 := readGC()
	retries := checkRetries(rep, fresh, len(traced))

	// Plan each traced submission's spec directly, outside the timed
	// submissions.
	for i := range traced {
		specs := make([]workload.Spec, 0, len(names)+1)
		for _, w := range fleetSweep(e.seed, names, i) {
			s, err := workload.ResolveSpec(w)
			if err != nil {
				return nil, err
			}
			specs = append(specs, s)
		}
		o := tr.start("experiment.plan", 0)
		t0 := time.Now()
		_, err := (&experiment.Batch{Scenarios: specs, Configs: cpu.EvaluatedConfigs(), Policies: paperPolicies,
			Seeds: []uint64{e.seed}, ShardCount: 2}).Plan()
		planMS = append(planMS, ms(time.Since(t0)))
		o.end()
		if err != nil {
			return nil, err
		}
	}

	ref, _, err := fleetReference(ctx, e.seed, names, n/fleetPeriod+1)
	if err != nil {
		return nil, err
	}
	verifyFleet(rep, e.seed, names, append([]submission{cold}, plain...), ref)
	verifyFleet(rep, e.seed, names, traced, ref)
	var cells int
	for i, s := range traced {
		cells += s.cells
		if (s.res != nil || plain[i].res != nil) && !sameCells(s.res, plain[i].res) {
			rep.fail(1, "traced submission %d returned different cells from the untraced run", i)
		}
	}

	spans := tr.all()
	rep.spans = spans
	l := newLayers(spans)
	var hits, misses, evictions float64
	for _, w := range fresh.workers {
		st := w.Stats().Cache
		hits += float64(st.Hits)
		misses += float64(st.Misses)
		evictions += float64(st.Evictions)
	}
	var ttfb []float64
	var selfMS float64
	dispatch := map[int64]float64{}
	for _, s := range spans {
		if s.Name == "fleet.dispatch" {
			ttfb = append(ttfb, s.Attrs["ttfb_ms"])
			dispatch[s.Parent] = max(dispatch[s.Parent], s.ms())
		}
	}
	for _, s := range spans {
		if s.Name == "fleet.submission" {
			selfMS += s.ms() - dispatch[s.ID]
		}
	}
	l.set("perfmodel.train_ms", trainMS)
	l.set("experiment.cache_hits", hits)
	l.set("experiment.cache_misses", misses)
	l.set("experiment.cache_evictions", evictions)
	l.set("experiment.cache_hit_ratio", hits/(hits+misses))
	l.set("experiment.plan_ms", median(planMS))
	l.set("fleet.dispatches", float64(fresh.transport.requests.Load()))
	l.set("fleet.retries", float64(retries))
	l.set("fleet.dispatch_ttfb_ms", median(ttfb))
	l.set("fleet.wire_bytes_per_cell", float64(fresh.transport.bytes.Load())/float64(max(cells, 1)))
	l.set("fleet.coord_self_ms", selfMS/float64(max(len(traced), 1)))
	l.set("trace.overhead_ratio", dTraced.Seconds()/dPlain.Seconds())
	l.set("req.samples", float64(len(traced)))
	l.apply(rep)
	setGoMetrics(rep, gc0, gc1, cells, 0)
	return rep, nil
}
