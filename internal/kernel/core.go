package kernel

import (
	"fmt"

	"colab/internal/cpu"
	"colab/internal/sim"
	"colab/internal/task"
)

// Core is one simulated CPU. Execution state is kernel-owned; policies read
// ID/Kind/Tier and query Current.
type Core struct {
	ID   int
	Kind cpu.Kind // tier index into the config's palette
	Tier cpu.Tier

	// Current is the thread occupying the core (nil when idle).
	Current *task.Thread

	// DVFS state: the active index into ladder (the tier's operating
	// points, highest = nominal). Changed by the kernel at dispatch time
	// through the policy's DVFSGovernor hook.
	opp    int
	ladder []int
	// busyByOPP accounts busy time per operating point for the energy
	// model.
	busyByOPP []sim.Time
	// l2Mult is Tier.L2MissMult, which counter synthesis reads on every
	// accrual.
	l2Mult float64

	// Burst state (kernel-internal).
	burstEv    *sim.Event // pending burst-end event
	burstStart sim.Time   // when useful execution began (after switch costs)
	burstRun   sim.Time   // planned execution length of the burst
	sliceEnd   sim.Time   // absolute time the current slice expires

	lastThread *task.Thread // last thread that ran (to skip switch cost)

	// Pre-bound event callbacks (built once at machine construction) so the
	// steady-state dispatch loop schedules events without allocating a new
	// closure per burst or wake-up preemption check. Reschedules go through
	// the machine's one sweep callback.
	burstEndFn func()
	preemptFn  func()
	// woken holds the IDs of the threads whose wake-up preemption checks
	// are queued on this core, oldest first from wokenHead: each preemptFn
	// event takes the oldest, so the checks see their threads in push order.
	woken     []int32
	wokenHead int

	// Accounting.
	BusyTime   sim.Time
	IdleTime   sim.Time
	idleSince  sim.Time
	wasIdle    bool
	Dispatches int
}

// FreqGHz returns the core clock at the active operating point in cycles
// per nanosecond.
func (c *Core) FreqGHz() float64 { return float64(c.ladder[c.opp]) / 1000.0 }

// FreqMHz returns the active operating-point frequency.
func (c *Core) FreqMHz() int { return c.ladder[c.opp] }

// OPP returns the active operating-point index (ladder order, ascending
// frequency).
func (c *Core) OPP() int { return c.opp }

// NumOPPs returns the length of the core's DVFS ladder (1 when the tier
// runs fixed-frequency).
func (c *Core) NumOPPs() int { return len(c.ladder) }

// dvfsScale is the active frequency as a fraction of nominal; execution
// rates scale linearly with it. Exactly 1.0 at the nominal point.
func (c *Core) dvfsScale() float64 {
	return float64(c.ladder[c.opp]) / float64(c.ladder[len(c.ladder)-1])
}

// setOPP clamps and applies an operating-point index.
func (c *Core) setOPP(i int) {
	if i < 0 {
		i = 0
	}
	if i >= len(c.ladder) {
		i = len(c.ladder) - 1
	}
	c.opp = i
}

// accrueBusy charges busy time to the core at its active operating point.
func (c *Core) accrueBusy(d sim.Time) {
	c.BusyTime += d
	c.busyByOPP[c.opp] += d
}

// IsIdle reports whether no thread occupies the core.
func (c *Core) IsIdle() bool { return c.Current == nil }

// String identifies the core by its tier name.
func (c *Core) String() string { return fmt.Sprintf("cpu%d(%s)", c.ID, c.Tier.Name) }
