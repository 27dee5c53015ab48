package mathx

import (
	"math"
	"testing"
)

// synthetic dataset: feature 0 is the signal, feature 1 correlated noise,
// feature 2 pure noise, feature 3 constant.
func pcaFixture(n int, seed uint64) (*Matrix, []float64) {
	rng := NewRNG(seed)
	x := NewMatrix(n, 4)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sig := rng.Range(-1, 1)
		x.Set(i, 0, sig*10)
		x.Set(i, 1, sig*3+rng.Norm(0, 0.1))
		x.Set(i, 2, rng.Norm(0, 1))
		x.Set(i, 3, 7)
		y[i] = 2 + 3*sig
	}
	return x, y
}

func TestFitPCATopComponentFollowsVariance(t *testing.T) {
	x, _ := pcaFixture(200, 11)
	p, err := FitPCA(x, PCAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Without standardisation the x10 feature dominates component 0.
	v := p.Component.Col(0)
	if math.Abs(v[0]) < 0.9 {
		t.Fatalf("dominant feature loading = %v", v)
	}
	if p.Explained[0] <= p.Explained[1] {
		t.Fatalf("explained not sorted: %v", p.Explained)
	}
}

func TestFitPCAStandardizedSelectsSignalFeatures(t *testing.T) {
	x, _ := pcaFixture(200, 12)
	p, err := FitPCA(x, PCAOptions{Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	sel := p.SelectFeatures(2, 2)
	seen := map[int]bool{sel[0]: true, sel[1]: true}
	if !seen[0] || !seen[1] {
		t.Fatalf("selected %v, want the two correlated signal features {0,1}", sel)
	}
	ratios := p.ExplainedRatio()
	sum := 0.0
	for _, r := range ratios {
		sum += r
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("explained ratios sum to %v", sum)
	}
}

func TestFitPCAErrors(t *testing.T) {
	if _, err := FitPCA(NewMatrix(1, 3), PCAOptions{}); err == nil {
		t.Fatalf("single sample must error")
	}
	if _, err := FitPCA(NewMatrix(5, 0), PCAOptions{}); err == nil {
		t.Fatalf("zero features must error")
	}
}

func TestPCATransformShape(t *testing.T) {
	x, _ := pcaFixture(50, 13)
	p, err := FitPCA(x, PCAOptions{Standardize: true})
	if err != nil {
		t.Fatal(err)
	}
	// Project the standardised rows onto the first two components.
	proj := NewMatrix(x.Rows, 2)
	for i := 0; i < x.Rows; i++ {
		for c := 0; c < 2; c++ {
			s := 0.0
			for j := range p.Mean {
				s += (x.At(i, j) - p.Mean[j]) / p.Scale[j] * p.Component.At(j, c)
			}
			proj.Set(i, c, s)
		}
	}
	// Projections onto distinct components are uncorrelated.
	if c := Correlation(proj.Col(0), proj.Col(1)); math.Abs(c) > 0.05 {
		t.Fatalf("component scores correlated: %v", c)
	}
}

func TestFitLinRegRecoversCoefficients(t *testing.T) {
	rng := NewRNG(21)
	n := 300
	x := NewMatrix(n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := rng.Range(-2, 2), rng.Range(-2, 2), rng.Range(-2, 2)
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		x.Set(i, 2, c)
		y[i] = 1.5 + 2*a - 0.5*b + 0*c + rng.Norm(0, 0.01)
	}
	reg, err := FitLinReg(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(reg.Intercept, 1.5, 0.02) {
		t.Fatalf("intercept = %v", reg.Intercept)
	}
	want := []float64{2, -0.5, 0}
	for i, w := range want {
		if !almostEq(reg.Coef[i], w, 0.02) {
			t.Fatalf("coef[%d] = %v, want %v", i, reg.Coef[i], w)
		}
	}
	if r2 := reg.R2(x, y); r2 < 0.999 {
		t.Fatalf("R2 = %v", r2)
	}
	if mae := reg.MAE(x, y); mae > 0.02 {
		t.Fatalf("MAE = %v", mae)
	}
}

func TestFitLinRegRidgeHandlesCollinearity(t *testing.T) {
	rng := NewRNG(22)
	n := 100
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a := rng.Range(-1, 1)
		x.Set(i, 0, a)
		x.Set(i, 1, 2*a) // perfectly collinear
		y[i] = 3 * a
	}
	if _, err := FitLinReg(x, y, 0); err == nil {
		t.Fatalf("collinear OLS must error without ridge")
	}
	reg, err := FitLinReg(x, y, 1e-3)
	if err != nil {
		t.Fatalf("ridge fit: %v", err)
	}
	// Prediction quality matters, not coefficient identifiability.
	if mae := reg.MAE(x, y); mae > 0.01 {
		t.Fatalf("ridge MAE = %v", mae)
	}
}

func TestFitLinRegErrors(t *testing.T) {
	x := NewMatrix(3, 3)
	if _, err := FitLinReg(x, []float64{1, 2}, 0); err == nil {
		t.Fatalf("target length mismatch must error")
	}
	if _, err := FitLinReg(x, []float64{1, 2, 3}, 0); err == nil {
		t.Fatalf("underdetermined fit must error")
	}
	if _, err := FitLinReg(NewMatrix(10, 2), make([]float64, 10), -1); err == nil {
		t.Fatalf("negative ridge must error")
	}
}
