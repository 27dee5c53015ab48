package perfmodel

import (
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/task"
)

// sampleOn synthesises the counters a core of tier t reports for profile p
// retiring work units over cycles core cycles.
func sampleOn(rng *mathx.RNG, p cpu.WorkProfile, t cpu.Tier, work, cycles float64) cpu.Vec {
	cp := cpu.PrepareCounters(p)
	return cp.Sample(rng, t.L2MissMult(), work, cycles, 0)
}

// syntheticSamples builds training data directly from the counter model:
// random profiles, counters sampled as a big core would report them, labels
// set to the ground-truth speedup.
func syntheticSamples(n int, seed uint64) []Sample {
	rng := mathx.NewRNG(seed)
	out := make([]Sample, 0, n)
	for i := 0; i < n; i++ {
		p := cpu.WorkProfile{
			ILP:           rng.Float64(),
			BranchRate:    rng.Range(0, 0.3),
			MemIntensity:  rng.Float64(),
			StoreRate:     rng.Float64(),
			FPRate:        rng.Float64(),
			CodeFootprint: rng.Float64(),
		}
		work := rng.Range(5e6, 5e7)
		cycles := work * 2
		out = append(out, Sample{
			Bench:    "synthetic",
			Counters: sampleOn(rng, p, cpu.TierBig, work, cycles),
			Speedup:  p.TrueSpeedup(),
		})
	}
	return out
}

func TestTrainRecoversSpeedupSignal(t *testing.T) {
	samples := syntheticSamples(150, 1)
	m, err := Train(samples, NumSelected)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Features) != NumSelected {
		t.Fatalf("selected %d features", len(m.Features))
	}
	if m.R2 < 0.7 {
		t.Fatalf("R2 = %v, model failed to learn", m.R2)
	}
	if m.MAE > 0.25 {
		t.Fatalf("MAE = %v", m.MAE)
	}
	// Held-out sanity: predictions must track ground truth in rank order.
	held := syntheticSamples(60, 2)
	var preds, truth []float64
	for _, s := range held {
		preds = append(preds, m.Predict(s.Counters))
		truth = append(truth, s.Speedup)
	}
	if c := mathx.Correlation(preds, truth); c < 0.8 {
		t.Fatalf("held-out correlation = %v", c)
	}
}

func TestPredictClampsAndDefaults(t *testing.T) {
	samples := syntheticSamples(100, 3)
	m, err := Train(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	var empty cpu.Vec
	if got := m.Predict(empty); got != DefaultNeutralSpeedup {
		t.Fatalf("empty counters predict %v, want neutral", got)
	}
	// Absurd counter vectors must clamp into the physical envelope.
	var wild cpu.Vec
	wild[cpu.CtrCommittedInsts] = 1
	for i := range wild {
		if cpu.Counter(i) != cpu.CtrCommittedInsts {
			wild[i] = 1e12
		}
	}
	got := m.Predict(wild)
	if got < MinSpeedup || got > MaxSpeedup {
		t.Fatalf("prediction %v escaped clamp", got)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, 6); err == nil {
		t.Fatalf("no samples must error")
	}
	if _, err := Train(syntheticSamples(4, 4), 6); err == nil {
		t.Fatalf("too few samples must error")
	}
}

func TestThreadPredictorPrefersIntervalCounters(t *testing.T) {
	samples := syntheticSamples(120, 5)
	m, err := Train(samples, NumSelected)
	if err != nil {
		t.Fatal(err)
	}
	pred := m.ThreadPredictor()
	rng := mathx.NewRNG(6)
	hot := cpu.WorkProfile{ILP: 0.95, MemIntensity: 0.02, FPRate: 0.7, BranchRate: 0.1}
	cold := cpu.WorkProfile{ILP: 0.05, MemIntensity: 0.95}
	th := &task.Thread{Profile: hot}
	// Total counters say memory-bound; interval counters say compute-bound.
	th.TotalCounters = sampleOn(rng, cold, cpu.TierBig, 1e8, 2e8)
	th.IntervalCounters = sampleOn(rng, hot, cpu.TierBig, 1e7, 2e7)
	wantHi := pred(th)
	th.IntervalCounters = cpu.Vec{} // empty interval -> fall back to totals
	wantLo := pred(th)
	if wantHi <= wantLo {
		t.Fatalf("interval counters not preferred: fresh=%v stale=%v", wantHi, wantLo)
	}
	// A never-run thread gets the neutral default.
	if got := pred(&task.Thread{}); got != DefaultNeutralSpeedup {
		t.Fatalf("fresh thread predicts %v", got)
	}
}

func TestOracle(t *testing.T) {
	p := cpu.WorkProfile{ILP: 0.8, MemIntensity: 0.1}
	th := &task.Thread{Profile: p}
	if got := Oracle()(th); got != p.TrueSpeedup() {
		t.Fatalf("oracle = %v, want %v", got, p.TrueSpeedup())
	}
}

func TestDescribeMentionsSelectedCounters(t *testing.T) {
	m, err := Train(syntheticSamples(100, 7), 3)
	if err != nil {
		t.Fatal(err)
	}
	desc := m.Describe()
	for _, f := range m.Features {
		if !strings.Contains(desc, f.Name()) {
			t.Fatalf("describe missing counter %s:\n%s", f.Name(), desc)
		}
	}
	if !strings.Contains(desc, "committedInsts") {
		t.Fatalf("describe must mention the normalisation base")
	}
}

// End-to-end: the real training pipeline over the benchmark suite must fit
// well and cache its default model.
func TestCollectAndDefaultModel(t *testing.T) {
	if testing.Short() {
		t.Skip("symmetric training runs are not -short friendly")
	}
	samples, err := CollectSamples(CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 30 {
		t.Fatalf("only %d training samples", len(samples))
	}
	for _, s := range samples {
		if s.Speedup < 1.0 || s.Speedup > 3.0 {
			t.Fatalf("%s: implausible measured speedup %v", s.Bench, s.Speedup)
		}
	}
	m1, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	if m1.R2 < 0.8 {
		t.Fatalf("default model R2 = %v", m1.R2)
	}
	m2, _ := Default()
	if m1 != m2 {
		t.Fatalf("Default() must cache the model")
	}
}
