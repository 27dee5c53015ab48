package perfmodel

import (
	"fmt"
	"sync"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/task"
	"colab/internal/workload"
)

// TieredModel extends the paper's two-anchor speedup model to multi-tier
// machines: one independently trained Model per upper tier, each collected
// from symmetric runs on that tier's own cores (so a medium-core model is
// fit to medium-core counters, not interpolated from the big anchor). The
// base tier defines the work unit and needs no model.
type TieredModel struct {
	// Tiers is the palette the models were trained for, ascending capacity.
	Tiers []cpu.Tier
	// Models[k] predicts the tier-k-vs-base speedup from a raw counter
	// vector; Models[0] is nil (the base tier is 1.0 by definition).
	Models []*Model
}

// CollectTieredSamples runs every benchmark single-program on a symmetric
// machine of each palette tier under CFS and labels each upper tier's
// counter totals with the measured base-vs-tier execution ratio — the §4.1
// training-set construction repeated once per tier. The base-tier run of a
// benchmark is shared across all upper tiers. The result is indexed by tier;
// entry 0 is nil.
func CollectTieredSamples(tiers []cpu.Tier, opt CollectOptions) ([][]Sample, error) {
	if len(tiers) < 2 {
		return nil, fmt.Errorf("perfmodel: tiered training needs >= 2 tiers, got %d", len(tiers))
	}
	opt = opt.withDefaults()
	samples := make([][]Sample, len(tiers))
	for _, b := range workload.All() {
		threads := opt.Threads
		if threads == 0 {
			threads = b.DefaultThreads
		}
		if b.MaxThreads > 0 && threads > b.MaxThreads {
			threads = b.MaxThreads
		}
		baseRun, err := runSingleOn(b.Name, threads, cpu.NewSymmetricTier(tiers[0], opt.Cores), opt)
		if err != nil {
			return nil, err
		}
		baseThreads := baseRun.Threads()
		for k := 1; k < len(tiers); k++ {
			tierRun, err := runSingleOn(b.Name, threads, cpu.NewSymmetricTier(tiers[k], opt.Cores), opt)
			if err != nil {
				return nil, err
			}
			tierThreads := tierRun.Threads()
			if len(tierThreads) != len(baseThreads) {
				return nil, fmt.Errorf("perfmodel: %s symmetric runs disagree on thread count", b.Name)
			}
			for i, tt := range tierThreads {
				bt := baseThreads[i]
				if tt.SumExec < minTrainExec || bt.SumExec < minTrainExec {
					continue
				}
				samples[k] = append(samples[k], Sample{
					Bench:    b.Name,
					Counters: tt.TotalCounters,
					Speedup:  float64(bt.SumExec) / float64(tt.SumExec),
				})
			}
		}
	}
	for k := 1; k < len(tiers); k++ {
		if len(samples[k]) == 0 {
			return nil, fmt.Errorf("perfmodel: no usable training samples for tier %q", tiers[k].Name)
		}
	}
	return samples, nil
}

// TrainTiered collects per-tier training sets over the palette and fits one
// six-counter model per upper tier.
func TrainTiered(tiers []cpu.Tier, opt CollectOptions) (*TieredModel, error) {
	samples, err := CollectTieredSamples(tiers, opt)
	if err != nil {
		return nil, err
	}
	tm := &TieredModel{
		Tiers:  append([]cpu.Tier(nil), tiers...),
		Models: make([]*Model, len(tiers)),
	}
	for k := 1; k < len(tiers); k++ {
		m, err := Train(samples[k], NumSelected)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: tier %q: %w", tiers[k].Name, err)
		}
		tm.Models[k] = m
	}
	return tm, nil
}

// NumTiers returns the palette size the model covers.
func (tm *TieredModel) NumTiers() int { return len(tm.Tiers) }

// PredictTier estimates the tier-k-vs-base speedup from a raw counter
// vector, clamped to the tier's physical envelope. Tier 0 and vectors
// without committed instructions yield the tier-interpolated neutral
// default.
func (tm *TieredModel) PredictTier(k int, v cpu.Vec) float64 {
	if k <= 0 || k >= len(tm.Tiers) {
		return 1.0
	}
	t := tm.Tiers[k]
	if v[cpu.CtrCommittedInsts] <= 0 {
		return t.RelSpeedup(kernel.NeutralPred)
	}
	return mathx.Clamp(tm.Models[k].linear(v), t.MinSpeedup, t.MaxSpeedup)
}

// TierPredictor adapts the model to the per-thread per-tier predictor
// signature the policies consume, predicting from the thread's
// counterWindow (as Model.ThreadPredictor does).
func (tm *TieredModel) TierPredictor() func(*task.Thread, int) float64 {
	return func(t *task.Thread, k int) float64 { return tm.PredictTier(k, *counterWindow(t)) }
}

// Describe renders every per-tier model in Table 2 style.
func (tm *TieredModel) Describe() string {
	out := ""
	for k := 1; k < len(tm.Tiers); k++ {
		out += fmt.Sprintf("-- tier %q vs %q --\n%s", tm.Tiers[k].Name, tm.Tiers[0].Name, tm.Models[k].Describe())
	}
	return out
}

var (
	triGearOnce  sync.Once
	triGearModel *TieredModel
	triGearErr   error
)

// DefaultTriGear returns the lazily trained, process-cached tiered model for
// the standard tri-gear palette (cpu.TriGearTiers), the multi-tier analogue
// of Default.
func DefaultTriGear() (*TieredModel, error) {
	triGearOnce.Do(func() {
		triGearModel, triGearErr = TrainTiered(cpu.TriGearTiers(), CollectOptions{})
	})
	return triGearModel, triGearErr
}
