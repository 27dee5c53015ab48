package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if v := Variance(xs); !almostEq(v, 32.0/7, 1e-12) {
		t.Fatalf("variance = %v", v)
	}
	if s := Std(xs); !almostEq(s, math.Sqrt(32.0/7), 1e-12) {
		t.Fatalf("std = %v", s)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatalf("degenerate inputs must be 0")
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4, 16}); !almostEq(g, 4, 1e-12) {
		t.Fatalf("geomean = %v", g)
	}
	// Non-positive entries are skipped.
	if g := GeoMean([]float64{0, 4, 4, -1}); !almostEq(g, 4, 1e-12) {
		t.Fatalf("geomean with invalids = %v", g)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{0}) != 0 {
		t.Fatalf("all-invalid geomean must be 0")
	}
}

func TestMedianPercentile(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}

func TestMinMaxClampCorrelation(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-2, 0, 3) != 0 || Clamp(1, 0, 3) != 1 {
		t.Fatalf("clamp broken")
	}
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if c := Correlation(xs, ys); !almostEq(c, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", c)
	}
	neg := []float64{8, 6, 4, 2}
	if c := Correlation(xs, neg); !almostEq(c, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", c)
	}
	if Correlation(xs, []float64{1, 1, 1, 1}) != 0 {
		t.Fatalf("degenerate correlation must be 0")
	}
}

// Property: the median (50th percentile) lies between the minimum and the
// maximum (the 0th and 100th).
func TestPercentileMonotoneProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.IntN(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Range(-100, 100)
		}
		mn, mx := xs[0], xs[0]
		for _, v := range xs {
			mn, mx = math.Min(mn, v), math.Max(mx, v)
		}
		med := Median(xs)
		return med >= mn && med <= mx
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	c := NewRNG(6)
	same := true
	a2 := NewRNG(5)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestRNGRangesAndJitter(t *testing.T) {
	rng := NewRNG(9)
	for i := 0; i < 1000; i++ {
		if v := rng.Range(2, 5); v < 2 || v >= 5 {
			t.Fatalf("Range out of bounds: %v", v)
		}
		if v := rng.Jitter(10, 0.2); v < 8 || v > 12 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
		if v := rng.IntN(7); v < 0 || v >= 7 {
			t.Fatalf("IntN out of bounds: %v", v)
		}
	}
	if rng.Jitter(-5, 2) < 0 {
		t.Fatalf("Jitter must clamp at 0")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(100)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	equal := 0
	for i := 0; i < 100; i++ {
		if c1.Float64() == c2.Float64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("forked streams look identical (%d equal draws)", equal)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	rng := NewRNG(4)
	p := rng.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}
