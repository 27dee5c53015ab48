package mathx

import (
	"fmt"
	"math"
	"sort"
)

// PCA is a fitted principal component analysis over a samples x features
// matrix. Components holds unit-norm principal axes as columns; Explained
// holds the variance captured by each axis in descending order.
type PCA struct {
	Mean      []float64 // per-feature mean subtracted before projection
	Scale     []float64 // per-feature std used for standardisation (1 if disabled)
	Component *Matrix   // features x features, column k = k-th principal axis
	Explained []float64 // eigenvalues (variance per component), descending
}

// PCAOptions controls the fit.
type PCAOptions struct {
	// Standardize divides each centred feature by its standard deviation,
	// making the analysis correlation-based rather than covariance-based.
	// This is what the paper's counter selection needs: raw counters have
	// wildly different magnitudes.
	Standardize bool
}

// FitPCA fits a PCA on x (rows = samples, cols = features).
func FitPCA(x *Matrix, opt PCAOptions) (*PCA, error) {
	n, d := x.Rows, x.Cols
	if n < 2 {
		return nil, fmt.Errorf("mathx: FitPCA needs at least 2 samples, got %d", n)
	}
	if d == 0 {
		return nil, fmt.Errorf("mathx: FitPCA needs at least 1 feature")
	}
	mean := make([]float64, d)
	for j := 0; j < d; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += x.At(i, j)
		}
		mean[j] = s / float64(n)
	}
	scale := make([]float64, d)
	for j := range scale {
		scale[j] = 1
	}
	if opt.Standardize {
		for j := 0; j < d; j++ {
			ss := 0.0
			for i := 0; i < n; i++ {
				dev := x.At(i, j) - mean[j]
				ss += dev * dev
			}
			sd := math.Sqrt(ss / float64(n-1))
			if sd < 1e-12 {
				sd = 1 // constant feature: leave unscaled rather than blow up
			}
			scale[j] = sd
		}
	}

	// Covariance (or correlation) matrix of the centred data.
	cov := NewMatrix(d, d)
	for i := 0; i < n; i++ {
		for a := 0; a < d; a++ {
			va := (x.At(i, a) - mean[a]) / scale[a]
			for b := a; b < d; b++ {
				vb := (x.At(i, b) - mean[b]) / scale[b]
				cov.Data[a*d+b] += va * vb
			}
		}
	}
	inv := 1 / float64(n-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.Data[a*d+b] * inv
			cov.Data[a*d+b] = v
			cov.Data[b*d+a] = v
		}
	}

	eig, err := JacobiEigen(cov)
	if err != nil {
		return nil, fmt.Errorf("mathx: FitPCA eigen-decomposition: %w", err)
	}
	// Numerical noise can make tiny eigenvalues slightly negative; clamp.
	for i, v := range eig.Values {
		if v < 0 {
			eig.Values[i] = 0
		}
	}
	return &PCA{Mean: mean, Scale: scale, Component: eig.Vectors, Explained: eig.Values}, nil
}

// ExplainedRatio returns the fraction of total variance captured by each
// component.
func (p *PCA) ExplainedRatio() []float64 {
	total := 0.0
	for _, v := range p.Explained {
		total += v
	}
	out := make([]float64, len(p.Explained))
	if total <= 0 {
		return out
	}
	for i, v := range p.Explained {
		out[i] = v / total
	}
	return out
}

// FeatureScores ranks features by their aggregate |loading| on the top
// components, weighted by explained-variance ratio. This is the counter
// selection rule: a feature that contributes strongly to high-variance
// components carries the most signal.
func (p *PCA) FeatureScores(topComponents int) []float64 {
	d := len(p.Mean)
	if topComponents <= 0 || topComponents > d {
		topComponents = d
	}
	ratio := p.ExplainedRatio()
	scores := make([]float64, d)
	for j := 0; j < d; j++ {
		for c := 0; c < topComponents; c++ {
			scores[j] += ratio[c] * math.Abs(p.Component.At(j, c))
		}
	}
	return scores
}

// SelectFeatures returns the indices of the k best features per
// FeatureScores, in descending score order.
func (p *PCA) SelectFeatures(k, topComponents int) []int {
	scores := p.FeatureScores(topComponents)
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
