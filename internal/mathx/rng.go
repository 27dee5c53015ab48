package mathx

import "math/rand/v2"

// RNG is a deterministic, seedable random source. All stochastic components
// of the simulator (workload generation, counter noise) draw from an RNG so
// that a (workload, config, scheduler, seed) tuple is fully reproducible.
//
// The uniform draws (Float64, Range, Jitter) read the concrete PCG source
// directly instead of going through rand.Rand's interface-typed source;
// they use rand.Rand.Float64's formula, so both paths advance and read the
// one stream identically.
type RNG struct {
	src *rand.PCG
	r   *rand.Rand
}

func newRNG(seed1, seed2 uint64) *RNG {
	src := rand.NewPCG(seed1, seed2)
	return &RNG{src: src, r: rand.New(src)}
}

// NewRNG returns an RNG seeded from a single 64-bit seed.
func NewRNG(seed uint64) *RNG {
	return newRNG(seed, seed^0x9e3779b97f4a7c15)
}

// Fork derives an independent child stream; the child is a pure function of
// the parent seed and the label, so forks are order-independent.
func (g *RNG) Fork(label uint64) *RNG {
	// Mix the label through a splitmix64 round to decorrelate streams.
	z := label + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return newRNG(g.src.Uint64()^z, z)
}

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return float64(g.src.Uint64()<<11>>11) / (1 << 53) }

// Range returns a uniform value in [lo, hi).
func (g *RNG) Range(lo, hi float64) float64 { return lo + (hi-lo)*g.Float64() }

// IntN returns a uniform int in [0, n).
func (g *RNG) IntN(n int) int { return g.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.src.Uint64() }

// Norm returns a normally distributed value with the given mean and stddev.
func (g *RNG) Norm(mean, std float64) float64 { return mean + std*g.r.NormFloat64() }

// Jitter returns base scaled by a uniform factor in [1-amp, 1+amp],
// clamped to be non-negative. The factor is Range(-amp, amp) rewritten to
// the bit-identical 2*amp*u - amp so that Jitter stays within the inlining
// budget; the counter model calls it 22 times per accrual.
func (g *RNG) Jitter(base, amp float64) (v float64) {
	v = base * (1 + (2*amp*g.Float64() - amp))
	if v < 0 {
		return 0
	}
	return
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Exp returns an exponentially distributed value with the given mean.
func (g *RNG) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }
