// Package cfs re-implements the Linux Completely Fair Scheduler on the
// simulated kernel: per-core run queues ordered by virtual runtime,
// least-loaded wake-up placement, sleeper credit, idle-time stealing and
// wake-up preemption with a granularity guard.
//
// CFS is both the paper's Linux baseline and the mechanical base layer the
// affinity-only policies (WASH, GTS) drive: they adjust thread affinity
// masks every labeling interval and leave allocation/selection to CFS.
//
// The policy is the composition of its two pipeline stages (AllocatorStage
// and SelectorStage in stages.go) over the pipeline's shared RunQueues,
// running on the fixed Linux latency defaults below. The queues are linear
// rather than red-black trees because the linear scan is faster (and
// allocation-free) at every realistic per-queue depth (docs/TUNING.md
// records the numbers). selectorbench_test.go checks the queues against a
// reference timeline and times them in BenchmarkRunQueueDispatch.
package cfs

import (
	"colab/internal/kernel"
	"colab/internal/sim"
)

// The CFS latency targets: the Linux defaults, shared by every policy built
// on CFS slices (COLAB's selector reads them from here).
const (
	// TargetLatency is the scheduling period every runnable thread should
	// run once within (Linux sched_latency_ns).
	TargetLatency = 6 * sim.Millisecond
	// MinGranularity floors the per-thread slice (sched_min_granularity_ns).
	MinGranularity = 750 * sim.Microsecond
	// WakeupGranularity guards wake-up preemption
	// (sched_wakeup_granularity_ns).
	WakeupGranularity = sim.Millisecond
	// sleeperCredit caps how much vruntime credit a waking sleeper gets
	// (half the target latency, as in place_entity).
	sleeperCredit = TargetLatency / 2
)

// New returns the CFS policy: the allocator and selector stages composed
// into a pipeline named "linux".
func New() kernel.Scheduler {
	s, err := kernel.NewPipeline("linux", nil, NewAllocator(), NewSelector(), nil)
	if err != nil {
		panic(err) // both mandatory stages are supplied above
	}
	return s
}
