// Paper-reproduction benchmarks: one Benchmark per table and figure of the
// evaluation section (see DESIGN.md's per-experiment index). Each iteration
// regenerates the artefact end-to-end from a fresh harness; the interesting
// output is the custom metrics (geomean H_ANTT/H_STP vs Linux) reported
// alongside the timing.
//
// Run with:
//
//	go test -bench=. -benchmem
package colab_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/mathx"
	"colab/internal/perfmodel"
	"colab/internal/workload"

	colab "colab"
)

func newRunner(b *testing.B) *experiment.Runner {
	b.Helper()
	r, err := experiment.NewRunner(1)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable2TrainSpeedupModel regenerates the offline training
// pipeline: 30 symmetric simulations, PCA counter selection, OLS fit.
func BenchmarkTable2TrainSpeedupModel(b *testing.B) {
	var r2 float64
	for i := 0; i < b.N; i++ {
		samples, err := perfmodel.CollectSamples(perfmodel.CollectOptions{Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		m, err := perfmodel.Train(samples, perfmodel.NumSelected)
		if err != nil {
			b.Fatal(err)
		}
		r2 = m.R2
	}
	b.ReportMetric(r2, "R2")
}

// BenchmarkTable3Characterization instantiates the whole Table 3 benchmark
// suite (15 generators at their default thread counts).
func BenchmarkTable3Characterization(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := mathx.NewRNG(uint64(i + 1))
		for _, bench := range workload.All() {
			app, err := bench.Instantiate(0, bench.DefaultThreads, rng)
			if err != nil {
				b.Fatal(err)
			}
			if app.NumThreads() == 0 {
				b.Fatal("empty app")
			}
		}
	}
}

// BenchmarkTable4Compositions builds all 26 Table 4 workloads.
func BenchmarkTable4Compositions(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, comp := range workload.Compositions() {
			if _, err := comp.Spec().Build(uint64(i + 1)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFigure4SingleProgram regenerates the single-program H_NTT study
// (12 benchmarks x 3 schedulers x 2 core orders on 2B2S, plus baselines).
func BenchmarkFigure4SingleProgram(b *testing.B) {
	var geomean float64
	for i := 0; i < b.N; i++ {
		tab, err := newRunner(b).Figure4()
		if err != nil {
			b.Fatal(err)
		}
		_ = tab
		geomean++
	}
}

func benchClassFigure(b *testing.B, run func(*experiment.Runner) (*experiment.Table, error)) {
	for i := 0; i < b.N; i++ {
		if _, err := run(newRunner(b)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5SyncNSync regenerates the Sync/NSync class comparison
// (8 workloads x 4 configs x 3 schedulers x 2 orders + baselines).
func BenchmarkFigure5SyncNSync(b *testing.B) {
	benchClassFigure(b, (*experiment.Runner).Figure5)
}

// BenchmarkFigure6CommComp regenerates the Comm/Comp class comparison.
func BenchmarkFigure6CommComp(b *testing.B) {
	benchClassFigure(b, (*experiment.Runner).Figure6)
}

// BenchmarkFigure7RandomMix regenerates the 10-workload random-mix figure.
func BenchmarkFigure7RandomMix(b *testing.B) {
	benchClassFigure(b, (*experiment.Runner).Figure7)
}

// BenchmarkFigure8ThreadCount regenerates the thread-count regrouping (the
// full 26-workload matrix feeds it).
func BenchmarkFigure8ThreadCount(b *testing.B) {
	benchClassFigure(b, (*experiment.Runner).Figure8)
}

// BenchmarkFigure9ProgramCount regenerates the program-count regrouping.
func BenchmarkFigure9ProgramCount(b *testing.B) {
	benchClassFigure(b, (*experiment.Runner).Figure9)
}

// BenchmarkSummaryAll regenerates the paper's closing aggregate over the
// full 312-simulation matrix and reports the headline metrics.
func BenchmarkSummaryAll(b *testing.B) {
	var colabANTT, washANTT float64
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		cells, err := r.RunMatrix(workload.Compositions(), cpu.EvaluatedConfigs(),
			[]string{experiment.SchedWASH, experiment.SchedCOLAB})
		if err != nil {
			b.Fatal(err)
		}
		var ca, wa []float64
		for _, c := range cells {
			switch c.Sched {
			case experiment.SchedCOLAB:
				ca = append(ca, c.Norm.HANTT)
			case experiment.SchedWASH:
				wa = append(wa, c.Norm.HANTT)
			}
		}
		colabANTT = mathx.GeoMean(ca)
		washANTT = mathx.GeoMean(wa)
	}
	b.ReportMetric(colabANTT, "colab-H_ANTT-vs-linux")
	b.ReportMetric(washANTT, "wash-H_ANTT-vs-linux")
}

// BenchmarkAblationScaleSlice and friends quantify each COLAB design choice
// on the Sync class, 2B2S (DESIGN.md's ablation index).
func benchAblation(b *testing.B, kind string) {
	var antt float64
	for i := 0; i < b.N; i++ {
		r := newRunner(b)
		cells, err := r.RunMatrix(workload.CompositionsByClass(workload.ClassSync),
			[]cpu.Config{cpu.Config2B2S}, []string{kind})
		if err != nil {
			b.Fatal(err)
		}
		var vals []float64
		for _, c := range cells {
			vals = append(vals, c.Norm.HANTT)
		}
		antt = mathx.GeoMean(vals)
	}
	b.ReportMetric(antt, "H_ANTT-vs-linux")
}

func BenchmarkAblationFullCOLAB(b *testing.B)    { benchAblation(b, experiment.SchedCOLAB) }
func BenchmarkAblationNoScaleSlice(b *testing.B) { benchAblation(b, experiment.SchedCOLABNoScale) }
func BenchmarkAblationLocalSelector(b *testing.B) {
	benchAblation(b, experiment.SchedCOLABLocal)
}
func BenchmarkAblationFlatAllocator(b *testing.B) { benchAblation(b, experiment.SchedCOLABFlat) }
func BenchmarkAblationNoPull(b *testing.B)        { benchAblation(b, experiment.SchedCOLABNoPull) }
func BenchmarkAblationOracleModel(b *testing.B)   { benchAblation(b, experiment.SchedCOLABOracle) }
func BenchmarkAblationGTS(b *testing.B)           { benchAblation(b, experiment.SchedGTS) }

// BenchmarkSimulationThroughput measures raw simulator speed: one Sync-2
// mix on 2B2S under COLAB, reporting simulated events per run. Workload
// generation happens outside the timed region.
func BenchmarkSimulationThroughput(b *testing.B) {
	model, err := colab.TrainSpeedupModel()
	if err != nil {
		b.Fatal(err)
	}
	events := benchKernel(b, "Sync-2", colab.Config2B2S, func() colab.Scheduler { return colab.NewCOLAB(model) })
	if b.N > 0 {
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
	}
}

// benchKernel runs b.N simulations of mix on cfg under fresh schedulers and
// returns the events fired. A workload instance is single-use, so each
// iteration builds one with the timer stopped: only the simulation is
// timed.
func benchKernel(b *testing.B, mix string, cfg colab.Config, sched func() colab.Scheduler) uint64 {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := colab.BuildWorkload(mix, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		s := sched()
		b.StartTimer()
		res, err := colab.Run(cfg, s, w)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.StopTimer()
	return events
}

// bigMix is the 128-thread four-program mix of the big-machine kernel
// benchmarks.
const bigMix = "ferret:32+bodytrack:32+radix:32+fft:32"

// oversubscribedMix is the 288-thread mix of the oversubscribed NUMA
// benchmark: more threads than the palette's 256 cores.
const oversubscribedMix = "radix:96+fft:96+ocean_cp:96"

// benchKernelEvents reports simulated events per timed wall second of mix
// on cfg.
func benchKernelEvents(b *testing.B, mix string, cfg colab.Config, sched func(*colab.SpeedupModel) colab.Scheduler) {
	model, err := colab.TrainSpeedupModel()
	if err != nil {
		b.Fatal(err)
	}
	events := benchKernel(b, mix, cfg, func() colab.Scheduler { return sched(model) })
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

func benchCOLAB(m *colab.SpeedupModel) colab.Scheduler { return colab.NewCOLAB(m) }

// BenchmarkKernelEvents128 measures big-machine kernel throughput: a
// 128-thread four-program mix saturating the 128-core tri-gear palette
// under COLAB, reporting simulated events per wall second. Every queue
// scan and dispatch tests admission on cores past 63.
func BenchmarkKernelEvents128(b *testing.B) {
	benchKernelEvents(b, bigMix, colab.Config32B32M64S, benchCOLAB)
}

// BenchmarkKernelEventsNUMA measures kernel throughput with an active
// topology: the same 128-thread mix on the two-socket 256-core palette
// under COLAB, so every dispatch runs the home-domain allocator, the
// domain-ranked steal comparator and the migration-penalty charge.
func BenchmarkKernelEventsNUMA(b *testing.B) {
	benchKernelEvents(b, bigMix, colab.Config2x32B32M64S, benchCOLAB)
}

// BenchmarkKernelEventsNUMAOversubscribed is BenchmarkKernelEventsNUMA
// with more threads than cores: COLAB on oversubscribedMix, whose
// selector steals and pulls over about twelve times as many candidates
// per run as on bigMix. This is the mix perfbench's numa-bigmachine
// workload runs.
func BenchmarkKernelEventsNUMAOversubscribed(b *testing.B) {
	benchKernelEvents(b, oversubscribedMix, colab.Config2x32B32M64S, benchCOLAB)
}

// BenchmarkKernelEventsNUMAFlat is BenchmarkKernelEventsNUMA on the flat
// twin of the palette (same cores, no topology): the gap between the two
// is the cost of topology awareness.
func BenchmarkKernelEventsNUMAFlat(b *testing.B) {
	benchKernelEvents(b, bigMix, colab.Config2x32B32M64S.Flat(), benchCOLAB)
}

// BenchmarkKernelEventsNUMALinux is the linux (CFS) arm on the NUMA
// palette: least-loaded placement and the idle-balance steal over 256
// queues.
func BenchmarkKernelEventsNUMALinux(b *testing.B) {
	benchKernelEvents(b, bigMix, colab.Config2x32B32M64S, benchLinux)
}

// BenchmarkKernelEventsNUMAOversubscribedLinux is the linux arm of
// BenchmarkKernelEventsNUMAOversubscribed, the other half of perfbench's
// numa-bigmachine workload. Linux reads no speedup predictor, so its runs
// synthesise no counters: this is the counter-synthesis layer's number.
func BenchmarkKernelEventsNUMAOversubscribedLinux(b *testing.B) {
	benchKernelEvents(b, oversubscribedMix, colab.Config2x32B32M64S, benchLinux)
}

func benchLinux(*colab.SpeedupModel) colab.Scheduler { return colab.NewLinux() }
