// Package kernel simulates the OS layer the paper patches: per-core
// dispatch, context switching, futex-based synchronisation with blocking
// blame accounting, vruntime bookkeeping, and the hook interface scheduling
// policies (CFS, WASH, COLAB, GTS) implement.
//
// The hooks mirror where the paper modifies Linux v3.16:
//
//	Enqueue       ~ select_task_rq_fair   (core allocation)
//	PickNext      ~ pick_next_task_fair   (thread selection)
//	WakeupPreempt ~ wakeup_preempt_entity (preemption check)
//	VRuntimeScale ~ the scale-slice vruntime update
//
// The periodic labeler the paper adds to __sched__schedule is no
// Scheduler hook: it is Labeler.Label, which a Pipeline calls every
// LabelInterval.
package kernel

import (
	"colab/internal/cpu"
	"colab/internal/sim"
	"colab/internal/task"
)

// Scheduler is a pluggable scheduling policy.
//
// Contract:
//   - Enqueue places a ready thread into some core's run queue and returns
//     that core's index. wakeup distinguishes sleep→ready transitions (the
//     paper's core-allocation trigger) from slice rotation re-queues.
//   - PickNext removes and returns the next thread for core c, or nil to
//     idle. It may instead return a thread currently Running on another
//     core: the kernel then performs the COLAB big-pulls-little preemption.
//   - TimeSlice bounds how long the picked thread may run before the kernel
//     re-invokes selection.
//   - VRuntimeScale multiplies wall-clock execution before it is added to
//     the thread's vruntime (COLAB's scale-slice equal-progress mechanism).
//   - WakeupPreempt reports whether newly woken t should preempt c.Current.
//   - Periodic work (labeling) is scheduled by the policy itself in Start
//     via m.Engine(); a Pipeline does it for its labeler, calling
//     Labeler.Label every LabelInterval.
type Scheduler interface {
	Name() string
	// Start installs the policy on a machine before any thread is admitted.
	Start(m *Machine)
	// Admit introduces a thread (state New) prior to its first Enqueue.
	Admit(t *task.Thread)
	// Enqueue places a ready thread and returns the chosen core index.
	Enqueue(t *task.Thread, wakeup bool) int
	// PickNext selects the next thread for c (removing it from any queue),
	// nil to idle.
	PickNext(c *Core) *task.Thread
	// TimeSlice returns the maximum uninterrupted run for t on c.
	TimeSlice(c *Core, t *task.Thread) sim.Time
	// VRuntimeScale returns the vruntime growth multiplier for t on c.
	VRuntimeScale(c *Core, t *task.Thread) float64
	// WakeupPreempt reports whether woken thread t preempts c.Current.
	WakeupPreempt(c *Core, t *task.Thread) bool
	// ThreadDone notifies the policy a thread retired.
	ThreadDone(t *task.Thread)
}

// DVFSGovernor is an optional Scheduler extension. A policy that implements
// it selects the operating point (an index into the core's tier ladder,
// ascending frequency) the kernel programs before each dispatch; the
// returned index is clamped to the ladder. Cores of fixed-frequency tiers
// (single-entry ladders, as in the paper's gem5 setup) never invoke the
// hook. Policies without the hook run every core at its nominal point.
type DVFSGovernor interface {
	// SelectOPP picks the operating point for thread t about to run on c.
	SelectOPP(c *Core, t *task.Thread) int
}

// Params are machine-level costs and limits. Zero values select defaults.
type Params struct {
	// ContextSwitchCost is charged when a core switches between two
	// different threads (~ a few microseconds on big.LITTLE).
	ContextSwitchCost sim.Time
	// MigrationCost is additionally charged when the incoming thread last
	// ran on a different core (cold caches).
	MigrationCost sim.Time
	// MaxEvents aborts runaway simulations (0 = default budget).
	MaxEvents uint64
	// CounterNoiseSeed seeds the performance-counter noise stream.
	CounterNoiseSeed uint64
	// Power models per-core-type power draw for the energy extension
	// (zero value selects cpu.DefaultPower).
	Power cpu.PowerModel
}

// Default costs.
const (
	DefaultContextSwitchCost = 3 * sim.Microsecond
	DefaultMigrationCost     = 25 * sim.Microsecond
	DefaultMaxEvents         = 30_000_000
)

// Canonical returns the params with every zero field replaced by its
// default: the normalised value cell keys hash, so a zero Params and an
// explicitly spelled-out default configuration (which run identically)
// share cache and journal entries.
func (p Params) Canonical() Params { return p.withDefaults() }

func (p Params) withDefaults() Params {
	if p.ContextSwitchCost == 0 {
		p.ContextSwitchCost = DefaultContextSwitchCost
	}
	if p.MigrationCost == 0 {
		p.MigrationCost = DefaultMigrationCost
	}
	if p.MaxEvents == 0 {
		p.MaxEvents = DefaultMaxEvents
	}
	if p.CounterNoiseSeed == 0 {
		p.CounterNoiseSeed = 0xc01ab
	}
	if p.Power == (cpu.PowerModel{}) {
		p.Power = cpu.DefaultPower
	}
	return p
}
