package kernel

import (
	"fmt"
	"strings"

	"colab/internal/sim"
	"colab/internal/task"
)

// This file is the generic policy-pipeline driver: it decomposes the
// Scheduler contract into four pluggable stages — a Labeler (the periodic
// multi-factor tagging pass), an Allocator (core allocation on enqueue), a
// Selector (thread selection plus the fairness hooks tied to it) and a
// Governor (per-dispatch DVFS) — and adapts any stage combination back into
// a Scheduler. Stages communicate through two pieces of shared state owned
// by the driver: the per-core RunQueues every allocator pushes into and
// every selector pops from, and the HintBoard of per-thread scheduling
// hints labelers publish and the other stages read. Cross-policy hybrids
// (say COLAB's labeler feeding the CFS selector) compose exactly because
// those two channels, plus the kernel-owned thread fields (affinity,
// vruntime), are the only coupling between stages.

// Stage is the contract shared by all pipeline stages.
type Stage interface {
	// Name is the stage's registry address, e.g. "colab.labeler".
	Name() string
	// Start installs the stage on a machine (via the shared pipeline
	// context) before any thread is admitted.
	Start(pc *PipelineContext)
}

// LabelInterval is the period of the labeling pass the pipeline drives for
// its labeler stage (the paper's 10 ms, §3.2).
const LabelInterval = 10 * sim.Millisecond

// Labeler is the periodic labeling stage (~ the paper's multi-factor
// labeler added to __sched__schedule). It observes threads, refreshes the
// runtime models and publishes per-thread Hints; it may also steer thread
// affinity (WASH/GTS style) through PipelineContext.Requeue.
type Labeler interface {
	Stage
	// Label is one labeling pass. The pipeline calls it at every multiple
	// of LabelInterval until the machine is done, with the admitted,
	// unretired threads in ascending ID order (possibly none). The slice
	// is reused by the next pass.
	Label(threads []*task.Thread)
}

// Allocator is the core-allocation stage (~ select_task_rq_fair): it places
// a ready thread into some core's run queue (PipelineContext.Queues) and
// returns that core's index.
type Allocator interface {
	Stage
	Enqueue(t *task.Thread, wakeup bool) int
}

// Selector is the thread-selection stage (~ pick_next_task_fair) together
// with the fairness hooks inseparable from selection order: slice length,
// vruntime scaling and wake-up preemption.
type Selector interface {
	Stage
	PickNext(c *Core) *task.Thread
	TimeSlice(c *Core, t *task.Thread) sim.Time
	VRuntimeScale(c *Core, t *task.Thread) float64
	WakeupPreempt(c *Core, t *task.Thread) bool
}

// Governor is the DVFS stage: it picks the operating point the kernel
// programs before each dispatch. A pipeline without a governor stage runs
// every core at its nominal point, exactly like a Scheduler that does not
// implement DVFSGovernor.
type Governor interface {
	Stage
	SelectOPP(c *Core, t *task.Thread) int
}

// ---------------------------------------------------------------------------
// Shared per-thread hints.

// Neutral hint defaults: what stages assume for threads no labeler has
// observed yet.
const (
	// NeutralPred is the speedup prediction assumed before the first
	// labeling pass.
	NeutralPred = 1.5
	// NeutralUtil is the utilisation assumed before the first sampling pass
	// (threads start on the cheap tiers, the energy-first default).
	NeutralUtil = 0.4
)

// Hint is the per-thread blackboard entry labelers publish and the other
// stages read. Every field is optional: stages must tolerate the neutral
// defaults for threads no labeler has tagged yet (or when no labeler runs
// at all).
type Hint struct {
	// Label is the labeler's tag (colab.Label semantics for the built-in
	// COLAB stages; free = 0).
	Label int
	// TargetTier is the tier the allocator should steer to; -1 = free.
	TargetTier int
	// Pred is the predicted big-vs-little speedup.
	Pred float64
	// TierPred, when non-nil, holds per-tier speedup predictions indexed by
	// tier (entry 0 is 1 by definition).
	TierPred []float64
	// Crit is the criticality score (blocking-blame EWMA for the built-in
	// labelers).
	Crit float64
	// LastBlame is the thread's accumulated BlockBlame at the last labeling
	// pass; a live BlockBlame above it means fresh criticality the labeler
	// has not folded in yet.
	LastBlame sim.Time
	// Util is the tracked runnable-time fraction (EAS-style utilisation).
	Util float64
}

func newHint() *Hint {
	return &Hint{TargetTier: -1, Pred: NeutralPred, Util: NeutralUtil}
}

// HintBoard holds the live threads' hints, densely indexed by Thread.ID
// (which NewMachine assigns 0..n-1). The pipeline driver creates an entry
// at Admit and drops it at ThreadDone; Get materialises entries for
// unknown threads so stages can always read (and labelers always write)
// through it.
type HintBoard struct {
	hints []*Hint
}

// NewHintBoard returns an empty board with room for threads 0..n-1; it
// grows if a larger thread ID arrives.
func NewHintBoard(n int) *HintBoard {
	return &HintBoard{hints: make([]*Hint, n)}
}

// Get returns t's hint, materialising a neutral one if absent.
func (b *HintBoard) Get(t *task.Thread) *Hint {
	if t.ID >= len(b.hints) {
		b.hints = append(b.hints, make([]*Hint, t.ID+1-len(b.hints))...)
	}
	h := b.hints[t.ID]
	if h == nil {
		h = newHint()
		b.hints[t.ID] = h
	}
	return h
}

// Drop forgets t's hint.
func (b *HintBoard) Drop(t *task.Thread) {
	if t.ID < len(b.hints) {
		b.hints[t.ID] = nil
	}
}

// ---------------------------------------------------------------------------
// Shared run queues.

// rqEntry snapshots the vruntime at push time; (vr, seq) is a total order
// reproducing the CFS red-black-tree timeline ordering (seq breaks vruntime
// ties in insertion order).
type rqEntry struct {
	t   *task.Thread
	vr  sim.Time
	seq uint64
}

// RunQueues is the pipeline's shared per-core ready-queue state: the
// allocator pushes, the selector pops. Entries keep insertion order (the
// order COLAB-style criticality scans walk) while (vruntime, push-sequence)
// gives CFS-style timeline ordering for PopMinAllowed/StealMaxAllowed. An
// index of the non-empty queues lets steal scans visit only queued work.
//
// Queued threads are indexed by Thread.ID, so the threads queued at one
// time must have distinct IDs (NewMachine numbers them 0..n-1).
type RunQueues struct {
	qs    [][]rqEntry
	seqs  []uint64
	minVR []sim.Time
	// where[id] is the core whose queue holds thread id, plus one (0: not
	// queued); it grows like HintBoard when a larger ID arrives.
	where    []int32
	total    int
	nonEmpty coreSet // bit i set iff qs[i] is non-empty
}

// NewRunQueues returns empty queues for n cores.
func NewRunQueues(n int) *RunQueues {
	return &RunQueues{
		qs:       make([][]rqEntry, n),
		seqs:     make([]uint64, n),
		minVR:    make([]sim.Time, n),
		nonEmpty: newCoreSet(n),
	}
}

// NumQueues returns the number of per-core queues.
func (q *RunQueues) NumQueues() int { return len(q.qs) }

// Len returns the number of threads queued (not running) on core.
func (q *RunQueues) Len(core int) int { return len(q.qs[core]) }

// Total returns the number of threads queued on all cores.
func (q *RunQueues) Total() int { return q.total }

// NextNonEmpty returns the smallest core >= from whose queue holds a
// thread, or -1. Walking
//
//	for i := q.NextNonEmpty(0); i >= 0; i = q.NextNonEmpty(i + 1)
//
// visits the non-empty queues in ascending core order at a cost of the
// queued work, not the core count.
func (q *RunQueues) NextNonEmpty(from int) int {
	return next(q.nonEmpty, q.nonEmpty, 0, q.nonEmpty, from) // the set is its own bound
}

// MinVR returns the monotone vruntime floor of core's queue (the largest
// vruntime ever popped from its timeline; CFS placement rules build on it).
func (q *RunQueues) MinVR(core int) sim.Time { return q.minVR[core] }

// Push appends t to core's queue. Double-queueing a thread is a bug in the
// calling allocator.
func (q *RunQueues) Push(core int, t *task.Thread) {
	if t.ID >= len(q.where) {
		q.where = append(q.where, make([]int32, t.ID+1-len(q.where))...)
	}
	if at := q.where[t.ID]; at != 0 {
		panic(fmt.Sprintf("kernel: thread %v enqueued on cpu%d while queued on cpu%d", t, core, at-1))
	}
	q.seqs[core]++
	q.qs[core] = append(q.qs[core], rqEntry{t: t, vr: t.VRuntime, seq: q.seqs[core]})
	q.where[t.ID] = int32(core + 1)
	q.total++
	q.nonEmpty.add(core)
}

func entryLess(a, b rqEntry) bool {
	if a.vr != b.vr {
		return a.vr < b.vr
	}
	return a.seq < b.seq
}

func (q *RunQueues) removeAt(core, i int) *task.Thread {
	es := q.qs[core]
	t := es[i].t
	q.qs[core] = append(es[:i], es[i+1:]...)
	if len(es) == 1 {
		q.nonEmpty.remove(core)
	}
	q.where[t.ID] = 0
	q.total--
	return t
}

// PopMinAllowed removes and returns the thread with the smallest
// (vruntime, push order) on core that may run on core dest — the CFS
// leftmost — advancing the queue's vruntime floor, or nil when no queued
// thread qualifies. The affinity filter keeps a hybrid pipeline whose
// allocator queues affinity-blind (COLAB treats queues as bags and enforces
// affinity at selection) from dispatching a thread onto a forbidden core.
func (q *RunQueues) PopMinAllowed(core, dest int) *task.Thread {
	es := q.qs[core]
	best := -1
	for i := range es {
		if !es[i].t.AllowedOn(dest) {
			continue
		}
		if best < 0 || entryLess(es[i], es[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	if es[best].vr > q.minVR[core] {
		q.minVR[core] = es[best].vr
	}
	return q.removeAt(core, best)
}

// StealMaxAllowed removes and returns the thread with the largest
// (vruntime, push order) on core that may run on core dest — the CFS
// rightmost idle-balance steal — or nil. The vruntime floor is untouched.
func (q *RunQueues) StealMaxAllowed(core, dest int) *task.Thread {
	es := q.qs[core]
	best := -1
	for i := range es {
		if !es[i].t.AllowedOn(dest) {
			continue
		}
		if best < 0 || entryLess(es[best], es[i]) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return q.removeAt(core, best)
}

// Thread returns the i'th queued thread on core in insertion order
// (0 <= i < Len(core)) — the closure-free counterpart of Each for scans
// that must not allocate (COLAB's criticality sweeps).
func (q *RunQueues) Thread(core, i int) *task.Thread { return q.qs[core][i].t }

// Remove deletes t from whichever queue holds it, reporting whether it was
// queued. The vruntime floor is untouched (matching CFS dequeue).
func (q *RunQueues) Remove(t *task.Thread) bool {
	core := q.QueuedOn(t)
	if core < 0 {
		return false
	}
	for i, e := range q.qs[core] {
		if e.t == t {
			q.removeAt(core, i)
			return true
		}
	}
	panic(fmt.Sprintf("kernel: queue index desynced for thread %v", t))
}

// QueuedOn returns the core whose queue currently holds t, or -1.
func (q *RunQueues) QueuedOn(t *task.Thread) int {
	if t.ID >= len(q.where) {
		return -1
	}
	return int(q.where[t.ID]) - 1
}

// Each calls fn for every thread queued on core, in insertion order.
func (q *RunQueues) Each(core int, fn func(*task.Thread)) {
	for _, e := range q.qs[core] {
		fn(e.t)
	}
}

// ---------------------------------------------------------------------------
// Pipeline context and driver.

// PipelineContext is the shared state a pipeline's stages operate on. The
// driver builds one per Start.
type PipelineContext struct {
	m      *Machine
	queues *RunQueues
	hints  *HintBoard
	alloc  Allocator // re-places threads on Requeue
}

// Machine returns the machine under simulation.
func (pc *PipelineContext) Machine() *Machine { return pc.m }

// Queues returns the shared per-core run queues.
func (pc *PipelineContext) Queues() *RunQueues { return pc.queues }

// Hints returns the shared per-thread hint board.
func (pc *PipelineContext) Hints() *HintBoard { return pc.hints }

// NextUnloaded returns the smallest core >= from that runs no thread and
// has an empty run queue, or -1. Walking it from 0 visits the unloaded
// cores in ascending core order without probing the loaded ones.
func (pc *PipelineContext) NextUnloaded(from int) int {
	return next(pc.m.busy, pc.queues.nonEmpty, ^uint64(0), pc.m.allSet, from)
}

// Requeue re-places t after an affinity change: if t waits in a queue its
// new mask forbids, it is dequeued, re-enqueued through the pipeline's
// allocator and the chosen core is kicked — the effect sched_setaffinity
// has on a waiting task.
func (pc *PipelineContext) Requeue(t *task.Thread) {
	if core := pc.queues.QueuedOn(t); core >= 0 && !t.AllowedOn(core) {
		pc.queues.Remove(t)
		pc.m.Kick(pc.alloc.Enqueue(t, false))
	}
}

// Pipeline adapts a stage combination into a Scheduler. Allocator and
// selector are mandatory (they carry the mechanical scheduling base);
// labeler and governor are optional refinements.
type Pipeline struct {
	name  string
	lab   Labeler
	alloc Allocator
	sel   Selector
	gov   Governor
	pc    *PipelineContext

	// live[id] is admitted, unretired thread id, else nil. labelPass, bound
	// once as passFn, gathers them into pass, reused so it does not allocate.
	live   []*task.Thread
	pass   []*task.Thread
	passFn func()
}

// governedPipeline adds the DVFSGovernor extension when (and only when) a
// governor stage is present, so a governor-less pipeline is
// indistinguishable from a Scheduler without the hook.
type governedPipeline struct{ *Pipeline }

// SelectOPP implements DVFSGovernor.
func (p *governedPipeline) SelectOPP(c *Core, t *task.Thread) int { return p.gov.SelectOPP(c, t) }

// NewPipeline builds a Scheduler from a stage combination. lab and gov may
// be nil; name defaults to the stage names joined with "+".
func NewPipeline(name string, lab Labeler, alloc Allocator, sel Selector, gov Governor) (Scheduler, error) {
	if alloc == nil {
		return nil, fmt.Errorf("kernel: pipeline %q needs an allocator stage", name)
	}
	if sel == nil {
		return nil, fmt.Errorf("kernel: pipeline %q needs a selector stage", name)
	}
	if name == "" {
		var parts []string
		for _, s := range []Stage{lab, alloc, sel, gov} {
			if s != nil {
				parts = append(parts, s.Name())
			}
		}
		name = strings.Join(parts, "+")
	}
	p := &Pipeline{name: name, lab: lab, alloc: alloc, sel: sel, gov: gov}
	if gov != nil {
		return &governedPipeline{p}, nil
	}
	return p, nil
}

// Name implements Scheduler.
func (p *Pipeline) Name() string { return p.name }

// Start implements Scheduler: it builds the shared state and starts the
// stages in slot order (labeler first, with its periodic pass armed right
// after, so the pass is scheduled ahead of any same-time machine events).
func (p *Pipeline) Start(m *Machine) {
	pc := &PipelineContext{m: m, queues: NewRunQueues(len(m.Cores())), hints: NewHintBoard(m.workload.NumThreads()), alloc: p.alloc}
	p.pc = pc
	m.queues = pc.queues
	p.live = make([]*task.Thread, m.workload.NumThreads())
	if p.lab != nil {
		p.lab.Start(pc)
		p.passFn = p.labelPass
		m.eng.After(LabelInterval, p.passFn)
	}
	p.alloc.Start(pc)
	p.sel.Start(pc)
	if p.gov != nil {
		p.gov.Start(pc)
	}
}

// labelPass runs the labeler over the live threads in ID order and re-arms
// itself; it lapses once the machine is done.
func (p *Pipeline) labelPass() {
	m := p.pc.m
	if m.done {
		return
	}
	threads := p.pass[:0]
	for _, t := range p.live {
		if t != nil {
			threads = append(threads, t)
		}
	}
	p.pass = threads
	p.lab.Label(threads)
	m.eng.After(LabelInterval, p.passFn)
}

// Admit implements Scheduler.
func (p *Pipeline) Admit(t *task.Thread) {
	p.pc.hints.Get(t) // materialise the neutral hint for the thread's lifetime
	p.live[t.ID] = t
}

// ThreadDone implements Scheduler.
func (p *Pipeline) ThreadDone(t *task.Thread) {
	p.live[t.ID] = nil
	p.pc.hints.Drop(t)
}

// Enqueue implements Scheduler.
func (p *Pipeline) Enqueue(t *task.Thread, wakeup bool) int { return p.alloc.Enqueue(t, wakeup) }

// PickNext implements Scheduler.
func (p *Pipeline) PickNext(c *Core) *task.Thread { return p.sel.PickNext(c) }

// TimeSlice implements Scheduler.
func (p *Pipeline) TimeSlice(c *Core, t *task.Thread) sim.Time { return p.sel.TimeSlice(c, t) }

// VRuntimeScale implements Scheduler.
func (p *Pipeline) VRuntimeScale(c *Core, t *task.Thread) float64 { return p.sel.VRuntimeScale(c, t) }

// WakeupPreempt implements Scheduler.
func (p *Pipeline) WakeupPreempt(c *Core, t *task.Thread) bool { return p.sel.WakeupPreempt(c, t) }

var (
	_ Scheduler    = (*Pipeline)(nil)
	_ DVFSGovernor = (*governedPipeline)(nil)
)
