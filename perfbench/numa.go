package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	colab "colab"
	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/perfmodel"
	"colab/internal/policy"
	"colab/internal/task"
)

// numaMix is the over-subscribed multi-program mix: 288 threads on the
// 256-core two-socket palette, so run queues stay deep and idle-balance
// stealing, home-domain allocation and the migration penalty run on
// nearly every dispatch. Three data-parallel programs keep one run short
// enough (0.1 s under linux, 0.4 s under colab on a 2-CPU host) for a
// window to hold over a hundred runs.
const numaMix = "radix:96+fft:96+ocean_cp:96"

// numaSeedsPerRun is how many derived seeds one run cycles through, so a
// run's statistics average over several inputs rather than resting on
// one.
const numaSeedsPerRun = 4

// numaCombo is one (machine, policy, seed) simulation of the mix.
type numaCombo struct {
	cfg    cpu.Config
	tag    string
	policy string
	seed   uint64
}

// numaMachines returns the NUMA palette and its flat twin. The twin keeps
// the core layout but drops the topology; cpu.Config.Flat keeps the name,
// so the twin is renamed here to keep the two machines apart in results.
func numaMachines() (numa, flat cpu.Config) {
	numa = cpu.Config2x32B32M64S
	flat = numa.Flat()
	flat.Name = numa.Name + "-flat"
	return numa, flat
}

// numaCombos returns one cycle of simulations for the workload seed: every
// derived seed on both machines under linux, colab and linux again. A
// COLAB run takes about four times as long as a linux run; with linux
// runs twice as frequent, the run-latency median falls inside the linux
// runs' range and the p90 inside the COLAB runs' range, rather than on
// the gap between the two.
func numaCombos(seed uint64) []numaCombo {
	numa, flat := numaMachines()
	var out []numaCombo
	for k := uint64(0); k < numaSeedsPerRun; k++ {
		s := seed*1000 + k
		for _, p := range []string{"linux", "colab", "linux"} {
			out = append(out, numaCombo{numa, "numa", p, s}, numaCombo{flat, "flat", p, s})
		}
	}
	return out
}

// numaRun is the outcome of one simulation.
type numaRun struct {
	combo      int
	start, end time.Time
	events     uint64
	sim        simCounts
	done       bool
}

// runNUMACombo builds the mix through the public colab.BuildWorkloadOn and
// simulates it. With a tracer, the build, machine and run are timed and
// the scheduler and predictor are wrapped.
func runNUMACombo(ctx context.Context, c numaCombo, speedup func(*task.Thread) float64, tr *tracer) (numaRun, error) {
	t0 := time.Now()
	o := tr.start("workload.build", 0)
	w, err := colab.BuildWorkloadOn(numaMix, c.seed, c.cfg)
	o.end()
	if err != nil {
		return numaRun{}, err
	}
	var res *kernel.Result
	if tr == nil {
		s, err := policy.New(c.policy, policy.Context{Speedup: speedup})
		if err != nil {
			return numaRun{}, err
		}
		res, err = colab.RunContext(ctx, c.cfg, s, w, colab.Params{})
		if err != nil {
			return numaRun{}, err
		}
	} else {
		cr := &cellRunner{speedup: speedup, tr: tr}
		res, err = cr.simulate(ctx, c.cfg, c.policy, w, 0, c.tag)
		if err != nil {
			return numaRun{}, err
		}
	}
	r := numaRun{start: t0, end: time.Now(), events: res.Events, done: true}
	r.sim.add(res)
	for _, a := range res.Apps {
		if a.Turnaround <= 0 {
			r.done = false
		}
	}
	return r, nil
}

// numaBlock is the number of consecutive combos that share one seed: both
// machines under linux, colab, linux.
const numaBlock = 6

// numaPhase runs combos in cycle order from index first on two goroutines
// until the window has passed, finishing the seed block in progress so
// both machines and both policies keep their shares. It returns the runs
// in completion order, the steal-free duration, and the index to continue
// from.
func numaPhase(ctx context.Context, e *env, combos []numaCombo, first int, window time.Duration, speedup func(*task.Thread) float64, tr *tracer) ([]numaRun, time.Duration, int, error) {
	var (
		mu      sync.Mutex
		next    = first
		runs    []numaRun
		firstEr error
		wg      sync.WaitGroup
	)
	start := time.Now()
	take := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstEr != nil || (next%numaBlock == 0 && next > first && time.Since(start) >= window) {
			return -1
		}
		next++
		return next - 1
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := take(); i >= 0; i = take() {
				r, err := runNUMACombo(ctx, combos[i%len(combos)], speedup, tr)
				mu.Lock()
				if err != nil && firstEr == nil {
					firstEr = err
				}
				r.combo = i % len(combos)
				runs = append(runs, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	e.clock.sample()
	return runs, e.took(start, end), next, firstEr
}

// verifyNUMA checks that every run finished all apps and that every
// repetition of a combo repeated its first run's event count, simulated
// end time and migration statistics exactly.
func verifyNUMA(rep *report, combos []numaCombo, runs []numaRun, ref map[int]numaRun) {
	rep.attempted += len(runs)
	for _, r := range runs {
		c := combos[r.combo]
		if !r.done {
			rep.fail(1, "%s on %s seed %d left apps unfinished", c.policy, c.cfg.Name, c.seed)
			continue
		}
		want, ok := ref[r.combo]
		if !ok {
			ref[r.combo] = r
			continue
		}
		if r.events != want.events || r.sim != want.sim {
			rep.fail(1, "%s on %s seed %d: %d events, %+v; an earlier run had %d events, %+v",
				c.policy, c.cfg.Name, c.seed, r.events, r.sim, want.events, want.sim)
		}
	}
}

func runNUMA(ctx context.Context, e *env) (*report, error) {
	rep := &report{}
	setupS, trainMS, err := repeatSetup(e, func(rep int) (time.Duration, error) { return timedTrain(rep == 0) })
	if err != nil {
		return nil, err
	}
	model, err := perfmodel.Default()
	if err != nil {
		return nil, err
	}
	speedup := model.ThreadPredictor()
	combos := numaCombos(e.seed)
	ref := make(map[int]numaRun)

	if e.trace {
		return traceNUMA(ctx, e, rep, combos, speedup, ref, trainMS)
	}
	// Measured phase: segments of about segmentLen with a host probe
	// before the first and after every segment.
	sp := &speed{e: e}
	sp.mark()
	var (
		runs   []numaRun
		events uint64
		lat    []float64
		wall   time.Duration
		cpu    time.Duration
		next   int
	)
	for seg, start := 0, time.Now(); seg == 0 || time.Since(start) < e.window; seg++ {
		cpu0, _ := selfUsage()
		segRuns, d, n, err := numaPhase(ctx, e, combos, next, segmentLen, speedup, nil)
		if err != nil {
			return nil, err
		}
		cpu1, _ := selfUsage()
		sp.mark()
		next = n
		wall += sp.ref(seg, d)
		cpu += sp.ref(seg, cpu1-cpu0)
		for _, r := range segRuns {
			events += r.events
			lat = append(lat, ms(sp.ref(seg, e.took(r.start, r.end))))
		}
		runs = append(runs, segRuns...)
	}
	_, rss := selfUsage()
	verifyNUMA(rep, combos, runs, ref)
	endToEnd{
		setupS:       setupS / sp.slow(0),
		cellsPerS:    float64(len(runs)) / wall.Seconds(),
		eventsPerS:   float64(events) / wall.Seconds(),
		reqMS:        lat,
		cpuPerCell:   cpu / time.Duration(len(runs)),
		peakRSSBytes: rss,
	}.apply(rep)
	return rep, nil
}

// traceNUMA alternates untraced and traced cycles over half the window
// each; both must produce the same simulated statistics for every combo.
func traceNUMA(ctx context.Context, e *env, rep *report, combos []numaCombo, speedup func(*task.Thread) float64, ref map[int]numaRun, trainMS float64) (*report, error) {
	tr := newTracer()
	gc0 := readGC()
	plain, dPlain, _, err := numaPhase(ctx, e, combos, 0, e.window/2, speedup, nil)
	if err != nil {
		return nil, err
	}
	traced, dTraced, _, err := numaPhase(ctx, e, combos, 0, e.window/2, speedup, tr)
	if err != nil {
		return nil, err
	}
	gc1 := readGC()
	verifyNUMA(rep, combos, plain, ref)
	verifyNUMA(rep, combos, traced, ref)
	var evPlain, evTraced uint64
	for _, r := range plain {
		evPlain += r.events
	}
	for _, r := range traced {
		evTraced += r.events
	}
	spans := tr.all()
	rep.spans = spans
	l := newLayers(spans)
	l.set("perfmodel.train_ms", trainMS)
	// Host time per simulated event, traced over untraced.
	l.set("trace.overhead_ratio", (dTraced.Seconds()/float64(evTraced))/(dPlain.Seconds()/float64(evPlain)))
	l.set("req.samples", float64(len(plain)))
	l.apply(rep)
	setGoMetrics(rep, gc0, gc1, 0, float64(evPlain+evTraced)/1000)
	if len(traced) == 0 {
		return nil, fmt.Errorf("traced pass ran no simulations")
	}
	return rep, nil
}
