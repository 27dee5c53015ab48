// Package perfmodel implements the paper's machine-learning speedup
// prediction (§4.1, Table 2): record the performance counters of symmetric
// big-only and little-only single-program runs, select the most informative
// counters with PCA, normalise them by committed instructions and fit a
// linear regression that estimates each thread's big-vs-little speedup
// online.
package perfmodel

import (
	"fmt"
	"strings"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/task"
)

// NumSelected is the number of counters the final model uses, as in the
// paper (six counters, Table 2).
const NumSelected = 6

// Speedup prediction clamps: nothing is slower on a big core, and the
// hardware model tops out below 3x.
const (
	MinSpeedup = 1.0
	MaxSpeedup = 3.0
)

// Sample is one training observation for an upper tier: a thread's counter
// totals from a run on that tier alone and its measured speedup over the
// same thread's run on the base tier (big-vs-little on the default
// palette).
type Sample struct {
	Bench    string
	Counters cpu.Vec
	Speedup  float64
}

// Model is a trained speedup predictor.
type Model struct {
	Features []cpu.Counter // selected counter indices (paper's A..F)
	Reg      *mathx.LinReg
	R2       float64 // fit quality on the training set
	MAE      float64 // mean absolute error on the training set
	Samples  int
}

// linear evaluates the regression on v's selected, instruction-normalised
// features: Intercept + sum of Coef[i]*norm[Features[i]], summed in
// feature order exactly as LinReg.Predict sums, over the stack-held
// normalised vector so a prediction does not allocate.
func (m *Model) linear(v cpu.Vec) float64 {
	norm := v.NormalizeByInsts()
	s := m.Reg.Intercept
	for i, f := range m.Features {
		s += m.Reg.Coef[i] * norm[f]
	}
	return s
}

// Predict estimates the big-vs-little speedup from a raw counter vector.
// Vectors without committed instructions yield the neutral
// kernel.NeutralPred.
func (m *Model) Predict(v cpu.Vec) float64 {
	if v[cpu.CtrCommittedInsts] <= 0 {
		return kernel.NeutralPred
	}
	return mathx.Clamp(m.linear(v), MinSpeedup, MaxSpeedup)
}

// minIntervalInsts is the instruction count below which an interval sample
// is too noisy and the cumulative counters are used instead.
const minIntervalInsts = 10_000

// counterWindow returns the counters a prediction for t reads: the current
// labeling interval's (fresh phase behaviour) once they hold
// minIntervalInsts committed instructions, else the cumulative totals.
func counterWindow(t *task.Thread) *cpu.Vec {
	if t.IntervalCounters[cpu.CtrCommittedInsts] >= minIntervalInsts {
		return &t.IntervalCounters
	}
	return &t.TotalCounters
}

// ThreadPredictor adapts the model to the per-thread predictor signature
// the policies consume, predicting from the thread's counterWindow.
func (m *Model) ThreadPredictor() func(*task.Thread) float64 {
	return func(t *task.Thread) float64 { return m.Predict(*counterWindow(t)) }
}

// Oracle returns a predictor that reads the hidden ground-truth speedup.
// It exists for model-quality ablations, not for the headline results.
func Oracle() func(*task.Thread) float64 {
	return func(t *task.Thread) float64 { return t.Profile.TrueSpeedup() }
}

// Train fits a model: PCA (standardised) over all candidate counters
// selects the k most informative ones, then OLS maps the selected,
// instruction-normalised counters to measured speedup.
func Train(samples []Sample, k int) (*Model, error) {
	if k <= 0 {
		k = NumSelected
	}
	if len(samples) < k+2 {
		return nil, fmt.Errorf("perfmodel: %d samples is too few to fit %d features", len(samples), k)
	}
	// Candidate features: every counter except the normalisation base.
	var candidates []cpu.Counter
	for i := 0; i < cpu.NumCounters; i++ {
		if cpu.Counter(i) != cpu.CtrCommittedInsts {
			candidates = append(candidates, cpu.Counter(i))
		}
	}
	xAll := mathx.NewMatrix(len(samples), len(candidates))
	y := make([]float64, len(samples))
	for i, s := range samples {
		norm := s.Counters.NormalizeByInsts()
		for j, cIdx := range candidates {
			xAll.Set(i, j, norm[cIdx])
		}
		y[i] = s.Speedup
	}
	pca, err := mathx.FitPCA(xAll, mathx.PCAOptions{Standardize: true})
	if err != nil {
		return nil, fmt.Errorf("perfmodel: %w", err)
	}
	// Rank candidates by PCA loading, then keep the k of them that
	// correlate best with the target — the paper's "largest effect on
	// speedup modeling" criterion combines both views.
	ranked := pca.SelectFeatures(len(candidates), k)
	type scored struct {
		cand int
		abs  float64
	}
	pool := ranked
	if len(pool) > 3*k {
		pool = pool[:3*k]
	}
	best := make([]scored, 0, len(pool))
	for _, cand := range pool {
		best = append(best, scored{cand, absCorr(xAll.Col(cand), y)})
	}
	for i := 0; i < len(best); i++ {
		for j := i + 1; j < len(best); j++ {
			if best[j].abs > best[i].abs {
				best[i], best[j] = best[j], best[i]
			}
		}
	}
	if len(best) > k {
		best = best[:k]
	}
	features := make([]cpu.Counter, len(best))
	xSel := mathx.NewMatrix(len(samples), len(best))
	for j, b := range best {
		features[j] = candidates[b.cand]
		for i := 0; i < len(samples); i++ {
			xSel.Set(i, j, xAll.At(i, b.cand))
		}
	}
	reg, err := mathx.FitLinReg(xSel, y, 1e-9)
	if err != nil {
		// Collinear counters: retry with a stronger ridge.
		reg, err = mathx.FitLinReg(xSel, y, 1e-3)
		if err != nil {
			return nil, fmt.Errorf("perfmodel: %w", err)
		}
	}
	m := &Model{Features: features, Reg: reg, Samples: len(samples)}
	m.R2 = reg.R2(xSel, y)
	m.MAE = reg.MAE(xSel, y)
	return m, nil
}

func absCorr(xs, ys []float64) float64 {
	c := mathx.Correlation(xs, ys)
	if c < 0 {
		return -c
	}
	return c
}

// Describe renders the model in the style of the paper's Table 2.
func (m *Model) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Selected performance counters (PCA, %d samples):\n", m.Samples)
	for i, f := range m.Features {
		fmt.Fprintf(&sb, "  %c: %-36s coef=%+.6g\n", 'A'+i, f.Name(), m.Reg.Coef[i])
	}
	fmt.Fprintf(&sb, "Linear predictive speedup model:\n  speedup = %.4f", m.Reg.Intercept)
	for i := range m.Features {
		fmt.Fprintf(&sb, " + (%+.6g * %c)", m.Reg.Coef[i], 'A'+i)
	}
	fmt.Fprintf(&sb, "\n  (all counters normalised to commit.committedInsts)\n")
	fmt.Fprintf(&sb, "Fit: R2=%.3f MAE=%.3f\n", m.R2, m.MAE)
	return sb.String()
}
