package mathx

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// refRNG is the stream RNG must reproduce: a rand.Rand over the same PCG
// seeding, with every derived draw written the way RNG first defined it.
type refRNG struct{ r *rand.Rand }

func newRefRNG(s1, s2 uint64) *refRNG { return &refRNG{rand.New(rand.NewPCG(s1, s2))} }

func (g *refRNG) fork(label uint64) *refRNG {
	z := label + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return newRefRNG(g.r.Uint64()^z, z)
}

func (g *refRNG) rangeOf(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

func (g *refRNG) jitter(base, amp float64) float64 {
	v := base * (1 + g.rangeOf(-amp, amp))
	if v < 0 {
		return 0
	}
	return v
}

// RNG reads the PCG directly for its uniform draws and through rand.Rand
// for the rest; interleaving every method must still give the exact values
// and stream positions of the plain rand.Rand stream, forks included. Any
// drift here changes every workload and counter sample.
func TestRNGStreamPinned(t *testing.T) {
	driver := rand.New(rand.NewPCG(5, 6))
	bases := []float64{0, math.Copysign(0, -1), 1, 3e6, -2.5, 1e-300}
	amps := []float64{0, 0.02, 0.35, 1, 1.5}
	for _, seed := range []uint64{0, 1, 42, 0xdeadbeef} {
		g := NewRNG(seed)
		ref := newRefRNG(seed, seed^0x9e3779b97f4a7c15)
		same := func(step int, what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d %s: got %v, want %v", seed, step, what, got, want)
			}
		}
		for step := 0; step < 4000; step++ {
			switch op := driver.IntN(9); op {
			case 0:
				same(step, "Float64", g.Float64(), ref.r.Float64())
			case 1:
				lo := driver.Float64()*10 - 5
				hi := lo + driver.Float64()*10
				same(step, "Range", g.Range(lo, hi), ref.rangeOf(lo, hi))
			case 2:
				b, a := bases[driver.IntN(len(bases))], amps[driver.IntN(len(amps))]
				same(step, "Jitter", g.Jitter(b, a), ref.jitter(b, a))
			case 3:
				n := 1 + driver.IntN(1000)
				if got, want := g.IntN(n), ref.r.IntN(n); got != want {
					t.Fatalf("seed %d step %d IntN(%d): got %d, want %d", seed, step, n, got, want)
				}
			case 4:
				same(step, "Norm", g.Norm(2, 0.5), 2+0.5*ref.r.NormFloat64())
			case 5:
				same(step, "Exp", g.Exp(3), ref.r.ExpFloat64()*3)
			case 6:
				n := driver.IntN(12)
				if got, want := g.Perm(n), ref.r.Perm(n); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d Perm(%d): got %v, want %v", seed, step, n, got, want)
				}
			case 7:
				if got, want := g.Uint64(), ref.r.Uint64(); got != want {
					t.Fatalf("seed %d step %d Uint64: got %#x, want %#x", seed, step, got, want)
				}
			case 8:
				label := driver.Uint64()
				cg, cr := g.Fork(label), ref.fork(label)
				same(step, "Fork.Float64", cg.Float64(), cr.r.Float64())
				same(step, "Fork.Jitter", cg.Jitter(5, 0.1), cr.jitter(5, 0.1))
				if got, want := cg.IntN(97), cr.r.IntN(97); got != want {
					t.Fatalf("seed %d step %d Fork.IntN: got %d, want %d", seed, step, got, want)
				}
			}
		}
		if got, want := g.Uint64(), ref.r.Uint64(); got != want {
			t.Fatalf("seed %d: final stream position drifted (%#x vs %#x)", seed, got, want)
		}
	}
}
