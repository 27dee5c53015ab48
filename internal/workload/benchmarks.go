package workload

import (
	"fmt"

	"colab/internal/task"
)

// builtinBenchmarks is the Table 3 set in paper order, with the paper's
// synchronisation-rate and communication/computation categories. All of the
// generators are expressed through the public Builder surface — they are
// reference users of the same authoring API custom benchmarks register
// against.
func builtinBenchmarks() []Benchmark {
	return []Benchmark{
		{
			Name: "blackscholes", Suite: "parsec",
			SyncRate: RateLow, CommComp: RateHigh,
			DefaultThreads: 4,
			Gen:            genBlackscholes,
		},
		{
			Name: "bodytrack", Suite: "parsec",
			SyncRate: RateMedium, CommComp: RateHigh,
			DefaultThreads: 4,
			Gen:            genBodytrack,
		},
		{
			Name: "dedup", Suite: "parsec",
			SyncRate: RateMedium, CommComp: RateHigh,
			DefaultThreads: 4,
			Gen:            genDedup,
		},
		{
			Name: "ferret", Suite: "parsec",
			SyncRate: RateHigh, CommComp: RateMedium,
			DefaultThreads: 4,
			Gen:            genFerret,
		},
		{
			Name: "fluidanimate", Suite: "parsec",
			SyncRate: RateVeryHigh, CommComp: RateLow,
			DefaultThreads: 4,
			Gen:            genFluidanimate,
		},
		{
			Name: "freqmine", Suite: "parsec",
			SyncRate: RateHigh, CommComp: RateHigh,
			DefaultThreads: 4,
			Gen:            genFreqmine,
		},
		{
			Name: "swaptions", Suite: "parsec",
			SyncRate: RateLow, CommComp: RateLow,
			DefaultThreads: 4,
			Gen:            genSwaptions,
		},
		{
			Name: "radix", Suite: "splash2",
			SyncRate: RateLow, CommComp: RateHigh,
			DefaultThreads: 4,
			Gen:            genRadix,
		},
		{
			Name: "lu_ncb", Suite: "splash2",
			SyncRate: RateLow, CommComp: RateLow,
			DefaultThreads: 4,
			Gen:            genLuNCB,
		},
		{
			Name: "lu_cb", Suite: "splash2",
			SyncRate: RateLow, CommComp: RateLow,
			DefaultThreads: 4,
			Gen:            genLuCB,
		},
		{
			Name: "ocean_cp", Suite: "splash2",
			SyncRate: RateLow, CommComp: RateLow,
			DefaultThreads: 4,
			Gen:            genOceanCP,
		},
		{
			Name: "water_nsquared", Suite: "splash2",
			SyncRate: RateMedium, CommComp: RateMedium,
			MaxThreads: 2, DefaultThreads: 2,
			Gen: genWaterNsquared,
		},
		{
			Name: "water_spatial", Suite: "splash2",
			SyncRate: RateLow, CommComp: RateLow,
			MaxThreads: 2, DefaultThreads: 2,
			Gen: genWaterSpatial,
		},
		{
			Name: "fmm", Suite: "splash2",
			SyncRate: RateMedium, CommComp: RateLow,
			MaxThreads: 2, DefaultThreads: 2,
			Gen: genFMM,
		},
		{
			Name: "fft", Suite: "splash2",
			SyncRate: RateLow, CommComp: RateHigh,
			DefaultThreads: 4,
			Gen:            genFFT,
		},
	}
}

// --- PARSEC ----------------------------------------------------------------

// blackscholes: embarrassingly parallel option pricing over a few
// barrier-separated sweeps; high-ILP FP kernels make every thread strongly
// core-sensitive.
func genBlackscholes(b *Builder, n int) {
	b.DataParallel(n, DataParallelOptions{
		Phases:    6,
		PhaseWork: 50 * ms,
		Imbalance: 0.08,
		Profile:   ComputeProfile,
	})
}

// bodytrack: per-frame fork/join around a serial tracking step on the main
// thread — the main thread is the recurring bottleneck the AMP-aware
// schedulers should accelerate.
func genBodytrack(b *Builder, n int) {
	const frames = 22
	rng := b.RNG()
	if n == 1 {
		ops := make(task.Program, 0, frames)
		for f := 0; f < frames; f++ {
			ops = append(ops, task.Compute{Work: rng.Jitter(34*ms, 0.1)})
		}
		b.Thread("main", BranchyProfile(rng), ops)
		return
	}
	barA, barB := b.NewID(), b.NewID()
	parallelShare := 30 * ms / float64(n)
	// Main thread: serial stage, release workers, join.
	main := make(task.Program, 0, 4*frames)
	for f := 0; f < frames; f++ {
		main = append(main,
			task.Compute{Work: rng.Jitter(4*ms, 0.15)}, // serial tracking step
			task.Barrier{ID: barA, Parties: n},
			task.Compute{Work: rng.Jitter(parallelShare, 0.1)},
			task.Barrier{ID: barB, Parties: n},
		)
	}
	b.Thread("main", BranchyProfile(rng), main)
	for i := 1; i < n; i++ {
		ops := make(task.Program, 0, 3*frames)
		for f := 0; f < frames; f++ {
			ops = append(ops,
				task.Barrier{ID: barA, Parties: n},
				task.Compute{Work: rng.Jitter(parallelShare, 0.1)},
				task.Barrier{ID: barB, Parties: n},
			)
		}
		b.Thread(fmt.Sprintf("w%d", i), BalancedProfile(rng), ops)
	}
}

// dedup: the 5-stage deduplication pipeline (fragment, refine, hash,
// compress, reorder) over bounded queues. Stage kernels differ sharply in
// core sensitivity, which is what makes coordinated allocation pay off.
func genDedup(b *Builder, n int) {
	b.Pipeline(n, []PipeStage{
		{Name: "frag", WorkItem: 1.2 * ms, Profile: MemoryProfile},
		{Name: "refine", WorkItem: 2.8 * ms, Profile: BalancedProfile},
		{Name: "hash", WorkItem: 4.5 * ms, Profile: ComputeProfile},
		{Name: "comp", WorkItem: 3.6 * ms, Profile: ComputeProfile},
		{Name: "reorder", WorkItem: 1.4 * ms, Profile: MemoryProfile},
	}, 96, 4)
}

// ferret: the 6-stage similarity-search pipeline; the rank stage dominates
// per-item cost (the unbalanced-stage example of §5.2, where COLAB gets its
// largest single-program win).
func genFerret(b *Builder, n int) {
	b.Pipeline(n, []PipeStage{
		{Name: "load", WorkItem: 0.9 * ms, Profile: MemoryProfile},
		{Name: "seg", WorkItem: 2.4 * ms, Profile: BalancedProfile},
		{Name: "extract", WorkItem: 3.2 * ms, Profile: ComputeProfile},
		{Name: "vec", WorkItem: 2.6 * ms, Profile: ComputeProfile},
		{Name: "rank", WorkItem: 7.5 * ms, Profile: ComputeProfile},
		{Name: "out", WorkItem: 0.8 * ms, Profile: MemoryProfile},
	}, 90, 4)
}

// fluidanimate: particle simulation with fine-grained cell locks — about
// two orders of magnitude more lock acquisitions than the other PARSEC
// apps (§5.2), hence "very high" sync rate.
func genFluidanimate(b *Builder, n int) {
	b.DataParallel(n, DataParallelOptions{
		Phases:     8,
		PhaseWork:  30 * ms,
		Imbalance:  0.10,
		LocksPer:   60,
		CSWork:     0.03 * ms,
		LockSpread: 6,
		Profile:    BalancedProfile,
	})
}

// freqmine: FP-growth mining as a master/worker task queue; branchy tree
// traversal with contended task dispatch.
func genFreqmine(b *Builder, n int) {
	const tasks = 110
	rng := b.RNG()
	if n == 1 {
		ops := make(task.Program, 0, tasks)
		for i := 0; i < tasks; i++ {
			ops = append(ops, task.Compute{Work: rng.Jitter(2.6*ms, 0.5)})
		}
		b.Thread("main", BranchyProfile(rng), ops)
		return
	}
	q := b.Queue(8)
	workers := n - 1
	// Master: grows the FP-tree (serial-ish) while feeding the queue.
	master := make(task.Program, 0, 2*tasks)
	for i := 0; i < tasks; i++ {
		master = append(master,
			task.Compute{Work: rng.Jitter(0.5*ms, 0.4)},
			task.Put{ID: q},
		)
	}
	b.Thread("master", BranchyProfile(rng), master)
	shares := splitShares(tasks, workers)
	for i := 0; i < workers; i++ {
		ops := make(task.Program, 0, 2*shares[i])
		for k := 0; k < shares[i]; k++ {
			ops = append(ops,
				task.Get{ID: q},
				task.Compute{Work: rng.Jitter(2.4*ms, 0.6)},
			)
		}
		b.Thread(fmt.Sprintf("w%d", i+1), BranchyProfile(rng), ops)
	}
}

// swaptions: fully independent Monte-Carlo pricing, no synchronisation at
// all. The heaviest thread is deliberately core-insensitive while the light
// threads are core-sensitive — the paper's ideal-for-WASH case where COLAB
// only matches Linux (§5.2).
func genSwaptions(b *Builder, n int) {
	rng := b.RNG()
	for i := 0; i < n; i++ {
		work := 70 * ms
		prof := ComputeProfile(rng)
		if i == 0 {
			work *= 1.6 // bottleneck-by-imbalance
			prof = MemoryProfile(rng)
		}
		ops := make(task.Program, 0, 4)
		for k := 0; k < 4; k++ {
			ops = append(ops, task.Compute{Work: rng.Jitter(work/4, 0.1)})
		}
		b.Thread(fmt.Sprintf("w%d", i), prof, ops)
	}
}

// --- SPLASH-2 ---------------------------------------------------------------

// radix: counting/permutation sort rounds; permutation traffic is
// memory-bound (little speedup), with frequent barrier exchanges.
func genRadix(b *Builder, n int) {
	b.DataParallel(n, DataParallelOptions{
		Phases:    14,
		PhaseWork: 18 * ms,
		Imbalance: 0.08,
		Profile:   MemoryProfile,
	})
}

// lu_ncb: blocked LU without contiguous allocation — poorer locality, more
// memory-bound, shrinking parallel sections as factorisation proceeds.
func genLuNCB(b *Builder, n int) {
	b.DataParallel(n, DataParallelOptions{
		Phases:    16,
		PhaseWork: 32 * ms,
		Imbalance: 0.20,
		Decay:     true,
		Profile:   MemoryProfile,
	})
}

// lu_cb: contiguous-block LU — cache-friendly compute kernels with the
// same shrinking-phase structure.
func genLuCB(b *Builder, n int) {
	b.DataParallel(n, DataParallelOptions{
		Phases:    16,
		PhaseWork: 30 * ms,
		Imbalance: 0.20,
		Decay:     true,
		Profile:   ComputeProfile,
	})
}

// ocean_cp: red-black Gauss-Seidel time steps on grids; bandwidth-bound
// with many short barrier-separated sweeps.
func genOceanCP(b *Builder, n int) {
	b.DataParallel(n, DataParallelOptions{
		Phases:    20,
		PhaseWork: 15 * ms,
		Imbalance: 0.06,
		Profile:   MemoryProfile,
	})
}

// water_nsquared: O(n^2) molecular dynamics with per-molecule locks each
// step (medium sync). Limited to 2 threads under simsmall.
func genWaterNsquared(b *Builder, n int) {
	b.DataParallel(n, DataParallelOptions{
		Phases:     6,
		PhaseWork:  40 * ms,
		Imbalance:  0.10,
		LocksPer:   12,
		CSWork:     0.08 * ms,
		LockSpread: 4,
		Profile:    ComputeProfile,
	})
}

// water_spatial: spatial-decomposition water — same physics, barriers only
// (low sync). Limited to 2 threads under simsmall.
func genWaterSpatial(b *Builder, n int) {
	b.DataParallel(n, DataParallelOptions{
		Phases:    6,
		PhaseWork: 40 * ms,
		Imbalance: 0.12,
		LocksPer:  2,
		CSWork:    0.05 * ms,
		Profile:   ComputeProfile,
	})
}

// fmm: adaptive fast multipole — tree imbalance skews the leader thread,
// moderate locking. Limited to 2 threads under simsmall.
func genFMM(b *Builder, n int) {
	b.DataParallel(n, DataParallelOptions{
		Phases:     6,
		PhaseWork:  38 * ms,
		Imbalance:  0.18,
		SkewFirst:  1.35,
		LocksPer:   6,
		CSWork:     0.06 * ms,
		LockSpread: 3,
		Profile:    BalancedProfile,
	})
}

// fft: six-step FFT alternating compute butterflies with all-to-all
// transposes. The transposes are genuine phase changes: each thread flips
// between a compute-bound and a memory-bound profile, which is exactly the
// behaviour that forces the speedup model to predict from fresh interval
// counters rather than lifetime averages.
func genFFT(b *Builder, n int) {
	bar := b.NewID()
	rng := b.RNG()
	const steps = 5
	perHalf := 2 // Phase + Compute
	if n > 1 {
		perHalf++ // the barrier
	}
	for i := 0; i < n; i++ {
		butterfly := ComputeProfile(rng)
		transpose := MemoryProfile(rng)
		ops := make(task.Program, 0, steps*2*perHalf)
		for s := 0; s < steps; s++ {
			ops = append(ops,
				task.Phase{Profile: butterfly},
				task.Compute{Work: rng.Jitter(28*ms, 0.07)})
			if n > 1 {
				ops = append(ops, task.Barrier{ID: bar, Parties: n})
			}
			ops = append(ops,
				task.Phase{Profile: transpose},
				task.Compute{Work: rng.Jitter(14*ms, 0.07)})
			if n > 1 {
				ops = append(ops, task.Barrier{ID: bar, Parties: n})
			}
		}
		b.Thread(fmt.Sprintf("w%d", i), butterfly, ops)
	}
}
