package cfs

import (
	"colab/internal/kernel"
	"colab/internal/sim"
	"colab/internal/task"
)

// The CFS stage decomposition: the least-loaded wake-up placement becomes
// the pipeline allocator and the vruntime-timeline selection (leftmost pop,
// rightmost idle-balance steal, granularity-guarded preemption) becomes the
// pipeline selector, both operating on the pipeline's shared RunQueues,
// whose (vruntime, push order) scans give the CFS timeline ordering. CFS
// has no labeler and no governor.

// AllocatorStage is the CFS core-allocation stage: least-loaded placement
// among allowed cores (asymmetry-blind) with sleeper vruntime credit on
// wake-up. Registered as "linux.allocator"; WASH and GTS alias it, since
// below their affinity masks allocation is plain CFS.
type AllocatorStage struct {
	pc *kernel.PipelineContext
}

// NewAllocator returns the CFS allocator stage.
func NewAllocator() *AllocatorStage { return &AllocatorStage{} }

// Name implements kernel.Stage.
func (a *AllocatorStage) Name() string { return "linux.allocator" }

// Start implements kernel.Stage.
func (a *AllocatorStage) Start(pc *kernel.PipelineContext) { a.pc = pc }

// Enqueue implements kernel.Allocator.
func (a *AllocatorStage) Enqueue(t *task.Thread, wakeup bool) int {
	core := a.leastLoadedAllowed(t)
	a.Place(t, core, wakeup)
	return core
}

// leastLoadedAllowed picks the allowed core with the smallest load (queued
// plus running threads), breaking ties by core index. With an unsatisfiable
// mask it falls back to all cores rather than wedging the thread.
//
// The first allowed unloaded core is that minimum, so the unloaded-core
// walk answers most calls without probing the loaded cores. Only when every
// allowed core is loaded does the full scan run, and it stops at the first
// allowed core of load 1, which is then the minimum.
func (a *AllocatorStage) leastLoadedAllowed(t *task.Thread) int {
	for i := a.pc.NextUnloaded(0); i >= 0; i = a.pc.NextUnloaded(i + 1) {
		if t.AllowedOn(i) {
			return i
		}
	}
	q, cores := a.pc.Queues(), a.pc.Machine().Cores()
	best, bestLoad := -1, int(^uint(0)>>1)
	for i := 0; i < q.NumQueues() && bestLoad > 1; i++ {
		if !t.AllowedOn(i) {
			continue
		}
		l := q.Len(i)
		if cores[i].Current != nil {
			l++
		}
		if l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if best < 0 {
		t.Affinity = task.MaskAll()
		return a.leastLoadedAllowed(t)
	}
	return best
}

// Place inserts t into core's run queue, applying the CFS vruntime
// placement rules (sleeper credit against the queue's vruntime floor).
// Exported for allocator stages that do their own core selection but keep
// CFS placement (EAS).
func (a *AllocatorStage) Place(t *task.Thread, core int, wakeup bool) {
	q := a.pc.Queues()
	floor := q.MinVR(core)
	if wakeup {
		floor -= sleeperCredit
	}
	if t.VRuntime < floor {
		t.VRuntime = floor
	}
	q.Push(core, t)
}

// LeastLoadedAllowed exposes the CFS fallback placement for embedding
// stages.
func (a *AllocatorStage) LeastLoadedAllowed(t *task.Thread) int { return a.leastLoadedAllowed(t) }

// SelectorStage is the CFS thread-selection stage: leftmost of the local
// timeline, else idle-balance steal of the least-entitled allowed thread
// from the busiest queue, plus the CFS slice/preemption rules. Registered
// as "linux.selector"; WASH and GTS alias it.
type SelectorStage struct {
	pc      *kernel.PipelineContext
	scratch []int // reused steal-order buffer (hot path: no per-call alloc)
}

// NewSelector returns the CFS selector stage.
func NewSelector() *SelectorStage { return &SelectorStage{} }

// Name implements kernel.Stage.
func (s *SelectorStage) Name() string { return "linux.selector" }

// Start implements kernel.Stage.
func (s *SelectorStage) Start(pc *kernel.PipelineContext) { s.pc = pc }

// PickNext implements kernel.Selector: the local timeline first, else the
// idle-balance steal over every other queue.
func (s *SelectorStage) PickNext(c *kernel.Core) *task.Thread {
	if t := s.PopLocal(c.ID); t != nil {
		return t
	}
	return s.StealInto(c.ID, -1)
}

// PopLocal removes and returns the leftmost thread of core's own queue
// that may run there, nil otherwise. The affinity filter never engages in
// the canonical compositions (their allocators only queue allowed threads,
// and labeler affinity changes requeue through PipelineContext.Requeue);
// it protects hybrids whose allocator queues affinity-blind, COLAB-style.
// Exported for selector stages with custom stealing rules.
func (s *SelectorStage) PopLocal(core int) *task.Thread {
	return s.pc.Queues().PopMinAllowed(core, core)
}

// StealInto steals the least-entitled thread runnable on core from the
// busiest other queue of the given tier (-1: every tier), nil when nothing
// is stealable. The idle balance is LLC-aware: nearer domains are searched
// first (cheapest migration), busiest-first within one distance band (a
// one-domain machine has one band). Exported for selector stages with custom
// stealing rules (EAS).
func (s *SelectorStage) StealInto(core, tier int) *task.Thread {
	q := s.pc.Queues()
	m := s.pc.Machine()
	cores, home := m.Cores(), m.DomainOf(core)
	order := s.scratch[:0]
	for i := q.NextNonEmpty(0); i >= 0; i = q.NextNonEmpty(i + 1) {
		if i != core && (tier < 0 || int(cores[i].Kind) == tier) {
			order = append(order, i)
		}
	}
	// Stable insertion sort so queues of equal rank keep their core order
	// (identical to sort.Slice on the small slices it small-sorts) without
	// allocating a comparator per call. Sources rank nearest-domain-first,
	// then busiest; on a one-domain machine every source is at distance 0.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && s.stealBefore(q, m, home, order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	s.scratch = order
	for _, i := range order {
		if t := q.StealMaxAllowed(i, core); t != nil {
			return t
		}
	}
	return nil
}

// stealBefore ranks steal source a strictly ahead of b for an idle core
// of domain home.
func (s *SelectorStage) stealBefore(q *kernel.RunQueues, m *kernel.Machine, home, a, b int) bool {
	da := m.DomainDistance(home, m.DomainOf(a))
	db := m.DomainDistance(home, m.DomainOf(b))
	if da != db {
		return da < db
	}
	return q.Len(a) > q.Len(b)
}

// nrRunning is the number of runnable threads associated with core (queued
// plus running), minimum 1, for slice computation.
func (s *SelectorStage) nrRunning(c *kernel.Core) int {
	n := s.pc.Queues().Len(c.ID)
	if c.Current != nil {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// TimeSlice implements kernel.Selector: target latency divided by the
// number of runnable threads, floored at the minimum granularity.
func (s *SelectorStage) TimeSlice(c *kernel.Core, t *task.Thread) sim.Time {
	slice := TargetLatency / sim.Time(s.nrRunning(c))
	if slice < MinGranularity {
		slice = MinGranularity
	}
	return slice
}

// VRuntimeScale implements kernel.Selector: CFS charges wall-clock time.
func (s *SelectorStage) VRuntimeScale(c *kernel.Core, t *task.Thread) float64 { return 1 }

// WakeupPreempt implements kernel.Selector: preempt when the woken thread
// is behind the running one by more than the wake-up granularity.
func (s *SelectorStage) WakeupPreempt(c *kernel.Core, t *task.Thread) bool {
	cur := c.Current
	if cur == nil {
		return false
	}
	return cur.VRuntime-t.VRuntime > WakeupGranularity
}

var (
	_ kernel.Allocator = (*AllocatorStage)(nil)
	_ kernel.Selector  = (*SelectorStage)(nil)
)
