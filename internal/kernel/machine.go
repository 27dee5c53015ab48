package kernel

import (
	"context"
	"fmt"
	"math/bits"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/topo"
)

// workEpsilon is the residual work (in little-core nanoseconds) below which
// a compute segment counts as retired; it absorbs float rounding from the
// rate division.
const workEpsilon = 1e-6

// Machine wires a hardware config, a scheduling policy and a workload into
// one deterministic simulation.
type Machine struct {
	eng      *sim.Engine
	config   cpu.Config
	cores    []*Core
	sched    Scheduler
	workload *task.Workload
	threads  []*task.Thread // by thread ID
	futexes  []*appFutexes  // per thread ID, its app's futex state
	wakeFns  []func()       // per thread ID, its sleep's wake-up, bound at its first sleep
	ctrRNG   *mathx.RNG
	params   Params

	live   int
	done   bool
	tracer func(TraceEvent)
	// noCounters switches counter synthesis off: set for a predictor-blind
	// pipeline (MarkPredictorBlind), and by SetCounters.
	noCounters bool

	tiers    []cpu.Tier // the config's palette, ascending capacity
	tierIDs  [][]int    // per tier index, core IDs in core order
	topTier  int        // index of the highest-capacity tier in the palette
	governor DVFSGovernor

	// Prepared accrual state per thread ID, derived from t.Profile by
	// prepare in NewMachine and again at every task.Phase op: the counter
	// profile and the speedup on each tier (speedup[id*len(tiers)+tier]).
	// Execution rates and counter samples read these instead of
	// re-deriving them from the profile on every burst and accrual.
	ctrProf []cpu.CounterProfile
	speedup []float64

	// Occupancy index, maintained by setCurrent: bit i of busy is set iff
	// cores[i].Current != nil. tierSets[k] holds tier k's cores and
	// allSet every core; they bound the busy/idle walks.
	busy     coreSet
	tierSets []coreSet
	allSet   coreSet
	// pending holds the cores with a reschedule queued: resched sets a
	// core's bit and queues the core on sweepQ, and the sweep clears the
	// bit before it runs schedule.
	pending coreSet
	// The reschedule sweep. sweepQ holds the pending cores in kick order,
	// each queued sweep event owning a contiguous run of it whose first
	// entry is marked (stored as ^id). sweepSeq is the engine sequence
	// number of the sweep event pushed last; sweepOpen reports that it has
	// not finished. A kick joins that sweep while no event has been pushed
	// since it, because its own reschedule event would have fired right
	// behind the sweep's cores.
	sweepQ    coreRing
	sweepSeq  uint64
	sweepOpen bool
	sweepFn   func()

	// queues is the pipeline scheduler's run-queue state (nil for other
	// schedulers), registered at Start for CheckInvariants.
	queues *RunQueues

	// Geometry, derived once from the config in NewMachine and read by
	// every stage instead of a copy of its own. NewMachine is the one
	// reader of Topology.Active: an inactive topology (flat, or zero
	// penalty) is one domain holding every core, so the topology-aware
	// paths run on every machine and reduce to the flat one there.
	tierMasks     []task.Mask // per tier, its cores, built on first TierMask call
	domainOf      []int       // per core, LLC domain index
	domainIDs     [][]int     // per domain, core IDs in core order
	domTierIDs    [][]int     // per domain×tier (dom*len(tiers)+tier), core IDs in core order
	dist          [][]int     // inter-domain distance in hops
	penaltyCycles float64     // migration penalty per hop, in destination-core cycles
	nextHome      int         // round-robin cursor for home-domain placement at admission
}

// NewMachine builds a machine. The workload's threads must be freshly
// generated (state New): a workload runs once, and Workload.Instance of a
// never-run workload gives each further run its own threads over the same
// read-only programs.
func NewMachine(cfg cpu.Config, sched Scheduler, w *task.Workload, params Params) (*Machine, error) {
	if cfg.NumCores() == 0 {
		return nil, fmt.Errorf("kernel: config %q has no cores", cfg.Name)
	}
	if cfg.NumCores() > cpu.MaxCores {
		return nil, fmt.Errorf("kernel: config %q has %d cores; max %d supported", cfg.Name, cfg.NumCores(), cpu.MaxCores)
	}
	if len(w.Apps) == 0 {
		return nil, fmt.Errorf("kernel: workload %q has no apps", w.Name)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params = params.withDefaults()
	m := &Machine{
		eng:      sim.NewEngine(),
		config:   cfg,
		sched:    sched,
		workload: w,
		ctrRNG:   mathx.NewRNG(params.CounterNoiseSeed),
		params:   params,
		tiers:    cfg.Tiers(),
		topTier:  cfg.NumTiers() - 1,
	}
	m.governor, _ = sched.(DVFSGovernor)
	if p := pipelineOf(sched); p != nil {
		m.noCounters = p.blind
	}
	n := cfg.NumCores()
	m.tierIDs = make([][]int, cfg.NumTiers())
	m.tierSets = make([]coreSet, cfg.NumTiers())
	for tier := range m.tierIDs {
		ids := cfg.TierIndices(tier)
		m.tierIDs[tier] = ids
		m.tierSets[tier] = coreSetOf(n, ids)
	}
	m.busy = newCoreSet(n)
	m.pending = newCoreSet(n)
	m.sweepQ = newCoreRing(n)
	m.sweepFn = m.sweep
	m.allSet = newCoreSet(n)
	for i := 0; i < n; i++ {
		m.allSet.add(i)
	}
	for i, kind := range cfg.Kinds {
		tier := cfg.Tier(i)
		ladder := tier.Ladder()
		c := &Core{
			ID: i, Kind: kind, Tier: tier,
			ladder:    ladder,
			opp:       len(ladder) - 1, // boot at nominal
			l2Mult:    tier.L2MissMult(),
			busyByOPP: make([]sim.Time, len(ladder)),
			wasIdle:   true,
		}
		c.burstEndFn = func() { m.onBurstEnd(c) }
		c.preemptFn = func() { m.preemptCheck(c) }
		m.cores = append(m.cores, c)
	}
	m.deriveDomains(cfg.Topology())
	m.threads = make([]*task.Thread, 0, w.NumThreads())
	m.ctrProf = make([]cpu.CounterProfile, w.NumThreads())
	m.speedup = make([]float64, w.NumThreads()*len(m.tiers))
	id := 0
	for _, a := range w.Apps {
		if len(a.Threads) == 0 {
			return nil, fmt.Errorf("kernel: app %q has no threads", a.Name)
		}
		if a.Arrival < 0 {
			return nil, fmt.Errorf("kernel: app %q has negative arrival %v", a.Name, a.Arrival)
		}
		for _, t := range a.Threads {
			if t.State != task.New {
				return nil, fmt.Errorf("kernel: thread %v reused (state %v); regenerate the workload", t, t.State)
			}
			t.ID = id
			id++
			m.threads = append(m.threads, t)
			m.prepare(t)
			t.CoreID = -1
			if t.Affinity.IsEmpty() {
				t.Affinity = task.MaskAll()
			}
			m.live++
		}
	}
	m.futexes = newFutexes(w)
	return m, nil
}

// oneDomainDist is the distance matrix of one domain; machines share it
// read-only.
var oneDomainDist = [][]int{{0}}

// deriveDomains builds the LLC-domain tables from the topology. An
// inactive topology is scheduled as the flat one: one domain of every core
// at distance 0. The domain lists and the domain×tier lists are windows of
// one backing array.
func (m *Machine) deriveDomains(tp topo.Topology) {
	if !tp.Active() {
		tp = topo.Topology{}
	}
	n, nt, nd := len(m.cores), len(m.tiers), tp.NumDomains()
	m.domainOf, m.dist, m.penaltyCycles = tp.CoreDomains(n), oneDomainDist, tp.PenaltyCycles
	if nd > 1 {
		m.dist = make([][]int, nd)
		for a := range m.dist {
			m.dist[a] = make([]int, nd)
			for b := range m.dist[a] {
				m.dist[a][b] = tp.Distance(a, b)
			}
		}
	}
	ids := make([]int, 0, 2*n)
	lists := make([][]int, nd+nd*nt)
	m.domainIDs, m.domTierIDs = lists[:nd:nd], lists[nd:]
	for d := range m.domainIDs {
		start := len(ids)
		for id, dom := range m.domainOf {
			if dom == d {
				ids = append(ids, id)
			}
		}
		m.domainIDs[d] = ids[start:len(ids):len(ids)]
	}
	for d, dom := range m.domainIDs {
		for tier := 0; tier < nt; tier++ {
			start := len(ids)
			for _, id := range dom {
				if int(m.cores[id].Kind) == tier {
					ids = append(ids, id)
				}
			}
			m.domTierIDs[d*nt+tier] = ids[start:len(ids):len(ids)]
		}
	}
}

// prepare derives t's accrual state from t.Profile.
func (m *Machine) prepare(t *task.Thread) {
	m.ctrProf[t.ID] = cpu.PrepareCounters(t.Profile)
	row := m.speedup[t.ID*len(m.tiers):]
	for k := range m.tiers {
		row[k] = t.Profile.SpeedupOn(m.tiers[k])
	}
}

// Engine exposes the event engine (custom policies schedule periodic work on it).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Now returns the current simulated time.
func (m *Machine) Now() sim.Time { return m.eng.Now() }

// Config returns the hardware configuration.
func (m *Machine) Config() cpu.Config { return m.config }

// Cores returns the simulated cores (do not mutate).
func (m *Machine) Cores() []*Core { return m.cores }

// NumTiers returns the size of the machine's tier palette.
func (m *Machine) NumTiers() int { return len(m.tierIDs) }

// Tiers returns the machine's tier palette in ascending capacity order.
func (m *Machine) Tiers() []cpu.Tier { return m.config.Tiers() }

// TierCoreIDs returns the core indices of the given tier, in core order
// (possibly empty: symmetric machines populate a single tier).
func (m *Machine) TierCoreIDs(tier int) []int { return m.tierIDs[tier] }

// TierMask returns the affinity mask of the given tier's cores (empty when
// the tier is unpopulated). The machine builds it on the first call;
// stages share it, and runs whose policy never asks build none.
func (m *Machine) TierMask(tier int) task.Mask {
	if m.tierMasks == nil {
		m.tierMasks = make([]task.Mask, len(m.tierIDs))
	}
	if ids := m.tierIDs[tier]; len(ids) > 0 && m.tierMasks[tier].IsEmpty() {
		m.tierMasks[tier] = task.MaskOf(ids)
	}
	return m.tierMasks[tier]
}

// TopTier returns the index of the highest-capacity tier in the palette.
func (m *Machine) TopTier() int { return m.topTier }

// Topology returns the machine's socket/LLC-domain layout (the zero-value
// flat topology on pre-topology configs).
func (m *Machine) Topology() topo.Topology { return m.config.Topology() }

// NumDomains returns the number of LLC domains the machine schedules over:
// the topology's domains when it is active, otherwise 1. A flat or
// zero-penalty topology is one domain holding every core.
func (m *Machine) NumDomains() int { return len(m.domainIDs) }

// DomainOf returns the LLC domain index of a core (0 on one-domain
// machines).
func (m *Machine) DomainOf(core int) int { return m.domainOf[core] }

// DomainCoreIDs returns the core indices of one LLC domain, in core order
// (do not mutate).
func (m *Machine) DomainCoreIDs(dom int) []int { return m.domainIDs[dom] }

// DomainTierCoreIDs returns the core indices of one tier within one LLC
// domain, in core order (possibly empty; do not mutate). A domain's lists
// partition its DomainCoreIDs.
func (m *Machine) DomainTierCoreIDs(dom, tier int) []int {
	return m.domTierIDs[dom*len(m.tiers)+tier]
}

// DomainDistance returns the hop count between two LLC domains (0 on
// one-domain machines).
func (m *Machine) DomainDistance(a, b int) int { return m.dist[a][b] }

// BusyWord returns word w of the given tier's occupancy: bit i is set iff
// core 64*w+i belongs to the tier and a thread occupies it. Words run from
// 0 to (len(Cores())+63)/64-1; walking their set bits visits the tier's
// occupied cores in ascending core order.
func (m *Machine) BusyWord(tier, w int) uint64 { return m.busy[w] & m.tierSets[tier][w] }

// NextIdle returns the smallest idle core >= from of the given tier (-1:
// any tier), or -1.
func (m *Machine) NextIdle(tier, from int) int {
	return next(m.busy, m.busy, ^uint64(0), m.tierSet(tier), from)
}

func (m *Machine) tierSet(tier int) coreSet {
	if tier < 0 {
		return m.allSet
	}
	return m.tierSets[tier]
}

// setCurrent is the one writer of Core.Current: it keeps the occupancy
// index in step with the core.
func (m *Machine) setCurrent(c *Core, t *task.Thread) {
	c.Current = t
	if t == nil {
		m.busy.remove(c.ID)
	} else {
		m.busy.add(c.ID)
	}
}

// Workload returns the workload under simulation.
func (m *Machine) Workload() *task.Workload { return m.workload }

// Done reports whether every thread retired.
func (m *Machine) Done() bool { return m.done }

// Kick asks core to re-run thread selection (deferred to the next event).
// Policies call it after moving queued threads around outside the normal
// Enqueue path, e.g. on affinity relabeling.
func (m *Machine) Kick(core int) {
	if core >= 0 && core < len(m.cores) && m.cores[core].Current == nil {
		m.resched(core)
	}
}

// SetCounters switches the synthesis of each thread's performance
// counters on or off; it must be set before Run, and it overrides the
// default. The default is on, except for a pipeline marked predictor-blind
// (MarkPredictorBlind, as policy.New marks every composition of blind
// stages): then it is off. Only a speedup predictor reads counters, and
// only counter synthesis draws from the counter RNG, so a run whose policy
// never consults a predictor schedules identically without them and
// leaves every counter zero. A caller that reads counters after a run
// under any scheduler it did not build itself turns them on here.
func (m *Machine) SetCounters(on bool) { m.noCounters = !on }

// Run admits applications (at time zero, or at their App.Arrival times for
// open-system workloads), drives the simulation to completion and returns
// the result. It fails when the event budget is exhausted or the system
// deadlocks (threads alive with no pending events).
func (m *Machine) Run() (*Result, error) {
	return m.RunContext(context.Background())
}

// ctxCheckInterval is how many simulation events fire between context
// checks in RunContext: large enough that the check is free against the
// per-event work, small enough that cancellation lands within microseconds
// of wall time.
const ctxCheckInterval = 16384

// RunContext is Run with cooperative cancellation: the event loop checks
// ctx every ctxCheckInterval events and returns a wrapped ctx.Err() as soon
// as the context is done. The simulation itself is unaffected by the
// chunked loop — event order, timestamps and results are identical to Run.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	m.start()
	remaining := m.params.MaxEvents
	overrun := false
	for !m.done && remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("kernel: %q under %s cancelled at %v: %w",
				m.workload.Name, m.sched.Name(), m.eng.Now(), err)
		}
		chunk := uint64(ctxCheckInterval)
		if chunk > remaining {
			chunk = remaining
		}
		fired := m.eng.Run(chunk)
		if fired > remaining {
			// A sweep counted its cores past the budget: the budget ran
			// out with the sweep's later cores still queued.
			fired, overrun = remaining, true
		}
		remaining -= fired
		if fired < chunk {
			// Queue drained (or Stop): no further events will fire.
			break
		}
	}
	if !m.done {
		if m.eng.Pending() == 0 && !overrun {
			return nil, fmt.Errorf("kernel: deadlock in %q under %s: %d threads alive with no pending events",
				m.workload.Name, m.sched.Name(), m.live)
		}
		return nil, fmt.Errorf("kernel: event budget %d exhausted for %q under %s at %v",
			m.params.MaxEvents, m.workload.Name, m.sched.Name(), m.eng.Now())
	}
	return m.buildResult(), nil
}

// start installs the policy and performs the time-zero admission: apps
// with Arrival == 0 are admitted immediately, later arrivals get
// timestamped admission events. Extracted from RunContext so tests (the
// allocation assertions) can admit a workload and then step the engine
// manually instead of driving the whole run.
func (m *Machine) start() {
	m.sched.Start(m)
	var late []*task.App
	for _, a := range m.workload.Apps {
		if a.Arrival > 0 {
			late = append(late, a)
			continue
		}
		a.StartTime = 0
		m.emit(TraceAdmit, -1, a.Name)
		m.placeApp(a)
		for _, t := range a.Threads {
			m.sched.Admit(t)
		}
	}
	// Admit threads: process leading sync ops; enqueue the runnable ones.
	for _, t := range m.threads {
		if t.App.Arrival > 0 {
			continue
		}
		switch m.advance(t) {
		case statusDone:
			m.finishThread(t)
		case statusBlocked:
			// Blocked at birth (e.g. pipeline consumer on an empty queue).
		case statusCompute:
			m.makeReady(t, false)
		}
	}
	for _, c := range m.cores {
		m.resched(c.ID)
	}
	// Open-system arrivals: each remaining app gets a timestamped admission
	// event. Until it fires, the app's threads stay New and invisible to the
	// policy; the pending event keeps the engine alive, so a quiet machine
	// waits for the arrival instead of reporting deadlock.
	for _, a := range late {
		a := a
		m.eng.After(a.Arrival, func() { m.admitApp(a) })
	}
}

// placeApp assigns the app a home LLC domain — apps round-robin across
// domains in admission order, threads inherit the app's domain — before
// the policy sees any of its threads. On a one-domain machine every
// thread's home is domain 0.
func (m *Machine) placeApp(a *task.App) {
	home := m.nextHome % len(m.domainIDs)
	m.nextHome++
	for _, t := range a.Threads {
		t.HomeDomain = home
	}
}

// admitApp introduces one open-system app at its arrival time: the policy
// sees every thread (state New) before the first Enqueue, exactly like the
// time-zero admission, and runnable threads then enter as wake-ups so they
// may preempt like any other awakened work. App turnaround is measured from
// this instant (StartTime = arrival).
func (m *Machine) admitApp(a *task.App) {
	if m.done {
		return
	}
	a.StartTime = m.eng.Now()
	m.emit(TraceAdmit, -1, a.Name)
	m.placeApp(a)
	for _, t := range a.Threads {
		m.sched.Admit(t)
	}
	for _, t := range a.Threads {
		switch m.advance(t) {
		case statusDone:
			m.finishThread(t)
		case statusBlocked:
			// Blocked at birth (e.g. pipeline consumer on an empty queue).
		case statusCompute:
			m.makeReady(t, true)
		}
	}
}

// ---------------------------------------------------------------------------
// Thread advancement through program ops (zero simulated time).

type threadStatus int

const (
	statusCompute threadStatus = iota // current op is Compute with work left
	statusBlocked
	statusDone
)

// advance consumes non-compute ops until the thread reaches a compute
// segment, blocks or retires.
func (m *Machine) advance(t *task.Thread) threadStatus {
	for {
		op := t.CurrentOp()
		if op == nil {
			return statusDone
		}
		switch o := op.(type) {
		case task.Compute:
			if o.Work <= workEpsilon {
				t.Remaining = 0
				t.PC++
				continue
			}
			if t.Remaining <= 0 {
				t.Remaining = o.Work
			}
			return statusCompute
		case task.Lock:
			if m.doLock(t, o.ID) {
				return statusBlocked
			}
		case task.Unlock:
			m.doUnlock(t, o.ID)
		case task.Barrier:
			if m.doBarrier(t, o.ID, o.Parties) {
				return statusBlocked
			}
		case task.Put:
			if m.doPut(t, o.ID) {
				return statusBlocked
			}
		case task.Get:
			if m.doGet(t, o.ID) {
				return statusBlocked
			}
		case task.Sleep:
			m.doSleep(t, o.Duration)
			return statusBlocked
		case task.Phase:
			t.Profile = o.Profile.Clamp()
			m.prepare(t)
			t.PC++
		default:
			panic(fmt.Sprintf("kernel: unknown op %T in %v", op, t))
		}
	}
}

// ---------------------------------------------------------------------------
// Blocking and waking.

func (m *Machine) blockThread(t *task.Thread) {
	t.State = task.Blocked
	t.WaitStart = m.eng.Now()
	m.emitT(TraceBlock, t.CoreID, t)
}

func (m *Machine) doSleep(t *task.Thread, d sim.Time) {
	if d < 0 {
		d = 0
	}
	m.blockThread(t)
	if m.wakeFns == nil {
		m.wakeFns = make([]func(), len(m.threads))
	}
	wake := m.wakeFns[t.ID]
	if wake == nil {
		wake = func() {
			if t.State == task.Blocked {
				m.wakeThread(t, nil)
			}
		}
		m.wakeFns[t.ID] = wake
	}
	m.eng.After(d, wake)
}

// wakeThread ends t's futex wait. blamer, when non-nil, is the thread that
// released the wait and accumulates the waiting period (the paper's
// criticality metric).
func (m *Machine) wakeThread(t *task.Thread, blamer *task.Thread) {
	now := m.eng.Now()
	dur := now - t.WaitStart
	t.BlockedTime += dur
	if blamer != nil {
		blamer.BlockBlame += dur
	}
	if !m.noCounters {
		// The wait shows up as quiesce cycles on the thread's counters.
		q := float64(dur) * float64(cpu.RefFreqMHz) / 1000.0
		t.TotalCounters[cpu.CtrQuiesceCycles] += q
		t.IntervalCounters[cpu.CtrQuiesceCycles] += q
	}
	t.PC++ // the blocking op completed
	m.emitT(TraceWake, -1, t)
	// Advance through the ops that follow: initialise the next compute
	// segment, or block again, or retire.
	switch m.advance(t) {
	case statusCompute:
		m.makeReady(t, true)
	case statusBlocked:
		// Re-blocked on the next op (e.g. chained barriers).
	case statusDone:
		m.finishThread(t)
	}
}

// makeReady hands a runnable thread to the policy's core allocator and
// kicks the affected cores. wakeup distinguishes real wake-ups (which may
// preempt) from slice-rotation re-queues (which must not cascade).
func (m *Machine) makeReady(t *task.Thread, wakeup bool) {
	now := m.eng.Now()
	t.State = task.Ready
	t.MarkReadyAt(now)
	target := m.sched.Enqueue(t, wakeup)
	if target < 0 || target >= len(m.cores) {
		panic(fmt.Sprintf("kernel: %s.Enqueue(%v) returned invalid core %d", m.sched.Name(), t, target))
	}
	tc := m.cores[target]
	if tc.Current == nil {
		m.resched(target)
	} else if wakeup {
		m.deferPreemptCheck(tc, t)
	}
	// Work conservation: any idle core the thread may run on gets a chance
	// to pick it (or anything else) up, in ascending core order. Cores with
	// a resched already queued (the target among them) are skipped; resched
	// is a no-op on them. The walk intersects the idle, unkicked cores with
	// the thread's mask a word at a time.
	for w := range m.busy {
		idle := ^(m.busy[w] | m.pending[w]) & m.allSet[w] & t.Affinity.Word(w)
		for ; idle != 0; idle &= idle - 1 {
			m.resched(w*64 + bits.TrailingZeros64(idle))
		}
	}
}

// deferPreemptCheck re-evaluates wake-up preemption after the current event
// handler finishes, avoiding reentrant core mutation mid-advance. Every
// After(0) event goes through the engine's same-instant FIFO, so c's
// checks fire in push order and each takes the oldest entry of c.woken.
func (m *Machine) deferPreemptCheck(c *Core, t *task.Thread) {
	c.woken = append(c.woken, int32(t.ID))
	m.eng.After(0, c.preemptFn)
}

// preemptCheck is c.preemptFn: the deferred wake-up preemption check of
// the oldest thread queued on c.woken.
func (m *Machine) preemptCheck(c *Core) {
	t := m.threads[c.woken[c.wokenHead]]
	c.wokenHead++
	if c.wokenHead == len(c.woken) {
		c.woken, c.wokenHead = c.woken[:0], 0
	}
	if m.done || t.State != task.Ready || c.Current == nil || c.Current == t {
		return
	}
	if m.sched.WakeupPreempt(c, t) {
		m.preemptCore(c)
	}
}

// preemptCore stops the core's current thread and re-queues it.
func (m *Machine) preemptCore(c *Core) {
	t := c.Current
	if t == nil {
		m.resched(c.ID)
		return
	}
	m.stopBurst(c)
	m.setCurrent(c, nil)
	t.State = task.Ready
	t.Preemptions++
	m.emitT(TracePreempt, c.ID, t)
	m.makeReady(t, false)
	m.resched(c.ID)
}

// ---------------------------------------------------------------------------
// Dispatch and burst execution.

// resched queues core id to re-run thread selection after the current
// event handler. The kick joins the sweep event pushed last while that
// sweep is unfinished and no event has been pushed since it; otherwise it
// pushes a new After(0) sweep event that the core's entry opens. Either
// way the core is visited exactly where an event of its own would have
// fired: behind the sweep's earlier cores and ahead of everything pushed
// after them. It takes the ID, not the Core, so the kick walk over idle
// cores touches no Core.
func (m *Machine) resched(id int) {
	if m.pending.has(id) || m.done {
		return
	}
	m.pending.add(id)
	if m.sweepOpen && m.eng.NextSeq() == m.sweepSeq+1 {
		m.sweepQ.push(int32(id))
		return
	}
	m.sweepQ.push(^int32(id))
	m.sweepSeq, m.sweepOpen = m.eng.NextSeq(), true
	m.eng.After(0, m.sweepFn)
}

// sweep is the handler of every sweep event. It visits the event's cores in
// kick order, those that join it while it runs included, and stops at the
// marked entry that opens the next sweep. Each core after the first counts
// as one more processed event, as its own reschedule event did, so
// Result.Events and the event budget are those of one event per core; cores
// left once the machine is done go uncounted, as their events would have
// been cut off by Stop.
func (m *Machine) sweep() {
	id := ^m.sweepQ.pop()
	for {
		m.pending.remove(int(id))
		m.schedule(m.cores[id])
		if m.sweepQ.n == 0 || m.sweepQ.at(0) < 0 {
			break
		}
		id = m.sweepQ.pop()
		if !m.done {
			m.eng.Processed++
		}
	}
	m.sweepOpen = m.sweepQ.n > 0
}

func (m *Machine) schedule(c *Core) {
	if m.done || c.Current != nil {
		return
	}
	now := m.eng.Now()
	t := m.sched.PickNext(c)
	if t == nil {
		if !c.wasIdle {
			c.wasIdle = true
			c.idleSince = now
			m.emit(TraceIdle, c.ID, "")
		}
		return
	}
	switch t.State {
	case task.Running:
		// COLAB-style pull: the policy selected a thread running on another
		// core (big preempts little). Stop it there and take it here.
		if t.CoreID == c.ID || t.CoreID < 0 {
			panic(fmt.Sprintf("kernel: %s.PickNext(%v) returned running thread %v on the same core", m.sched.Name(), c, t))
		}
		vc := m.cores[t.CoreID]
		if vc.Current != t {
			panic(fmt.Sprintf("kernel: %s.PickNext(%v) returned stale running thread %v", m.sched.Name(), c, t))
		}
		m.stopBurst(vc)
		m.setCurrent(vc, nil)
		t.Preemptions++
		m.resched(vc.ID)
	case task.Ready:
		t.AccrueReadyWait(now)
	default:
		panic(fmt.Sprintf("kernel: %s.PickNext(%v) returned thread %v in state %v", m.sched.Name(), c, t, t.State))
	}
	if c.wasIdle {
		c.IdleTime += now - c.idleSince
		c.wasIdle = false
	}
	var cost sim.Time
	if c.lastThread != t {
		cost += m.params.ContextSwitchCost
		t.Switches++
	}
	if t.CoreID >= 0 && t.CoreID != c.ID {
		cost += m.params.MigrationCost
		t.Migrations++
		// Cross-domain moves additionally pay the cold-cache penalty — every
		// migration path (Requeue relabeling, idle steal, pull preemption)
		// funnels through this dispatch point. The penalty is cycles per
		// hop at the destination core's nominal frequency.
		if hops := m.dist[m.domainOf[t.CoreID]][m.domainOf[c.ID]]; hops > 0 {
			cost += sim.Time(float64(hops) * (m.penaltyCycles * 1000 / float64(c.Tier.FreqMHz)))
			t.CrossDomainHops += hops
		}
		m.emitT(TraceMigrate, c.ID, t)
	}
	m.emitT(TraceDispatch, c.ID, t)
	m.setCurrent(c, t)
	c.lastThread = t
	t.State = task.Running
	t.CoreID = c.ID
	c.Dispatches++
	// DVFS: let a governor policy reprogram the core's operating point for
	// this occupancy. Fixed-frequency tiers (the paper's setup) skip the
	// hook entirely.
	if m.governor != nil && len(c.ladder) > 1 {
		c.setOPP(m.governor.SelectOPP(c, t))
	}
	slice := m.sched.TimeSlice(c, t)
	if slice <= 0 {
		slice = sim.Millisecond
	}
	c.sliceEnd = now + cost + slice
	c.accrueBusy(cost) // switch overhead occupies the core
	m.startBurst(c, cost)
}

// execRate returns the work units per nanosecond thread t retires on core
// c: the tier-relative speedup scaled by the active DVFS point.
func (m *Machine) execRate(c *Core, t *task.Thread) float64 {
	return m.speedup[t.ID*len(m.tiers)+int(c.Kind)] * c.dvfsScale()
}

// startBurst schedules the end of the next execution segment: the earlier
// of compute completion and slice expiry.
func (m *Machine) startBurst(c *Core, delay sim.Time) {
	t := c.Current
	now := m.eng.Now()
	rate := m.execRate(c, t)
	need := sim.Time(t.Remaining/rate) + 1 // ceil to whole ns
	begin := now + delay
	run := need
	if end := c.sliceEnd - begin; run > end {
		run = end
	}
	if run < 1 {
		run = 1
	}
	c.burstStart = begin
	c.burstRun = run
	c.burstEv = m.eng.After(delay+run, c.burstEndFn)
}

// stopBurst cancels the pending burst event and accrues any execution that
// already happened.
func (m *Machine) stopBurst(c *Core) {
	if c.burstEv != nil {
		m.eng.Cancel(c.burstEv)
		c.burstEv = nil
	}
	t := c.Current
	if t == nil {
		return
	}
	now := m.eng.Now()
	if now > c.burstStart {
		elapsed := now - c.burstStart
		if elapsed > c.burstRun {
			elapsed = c.burstRun
		}
		m.accrueExec(c, t, elapsed)
	}
}

func (m *Machine) onBurstEnd(c *Core) {
	c.burstEv = nil
	t := c.Current
	if t == nil {
		return
	}
	m.accrueExec(c, t, c.burstRun)
	if t.Remaining <= workEpsilon {
		if _, ok := t.CurrentOp().(task.Compute); ok {
			t.Remaining = 0
			t.PC++
		}
	}
	switch m.advance(t) {
	case statusDone:
		m.setCurrent(c, nil)
		m.finishThread(t)
		m.resched(c.ID)
	case statusBlocked:
		m.setCurrent(c, nil)
		m.resched(c.ID)
	case statusCompute:
		now := m.eng.Now()
		if now >= c.sliceEnd {
			// Slice expired: rotate through the policy.
			m.setCurrent(c, nil)
			t.State = task.Ready
			m.emitT(TraceRotate, c.ID, t)
			m.makeReady(t, false)
			m.resched(c.ID)
			return
		}
		m.continueBurst(c)
	}
}

func (m *Machine) continueBurst(c *Core) {
	m.startBurst(c, 0)
}

// accrueExec charges d nanoseconds of execution on c to t: work retired,
// vruntime growth (policy-scaled), busy time, and synthetic counters
// unless their synthesis is off (SetCounters).
func (m *Machine) accrueExec(c *Core, t *task.Thread, d sim.Time) {
	if d <= 0 {
		return
	}
	rate := m.execRate(c, t)
	work := float64(d) * rate
	if work > t.Remaining {
		work = t.Remaining
	}
	t.Remaining -= work
	if t.Remaining < workEpsilon {
		t.Remaining = 0
	}
	t.WorkDone += work
	t.SumExec += d
	if int(c.Kind) == m.topTier {
		t.SumExecBig += d
	}
	scale := m.sched.VRuntimeScale(c, t)
	if scale <= 0 {
		scale = 1
	}
	t.VRuntime += sim.Time(float64(d) * scale)
	c.accrueBusy(d)
	if m.noCounters {
		return
	}
	cycles := float64(d) * c.FreqGHz()
	vec := m.ctrProf[t.ID].Sample(m.ctrRNG, c.l2Mult, work, cycles, 0)
	t.TotalCounters.Add(&vec)
	t.IntervalCounters.Add(&vec)
}

func (m *Machine) finishThread(t *task.Thread) {
	now := m.eng.Now()
	t.State = task.Done
	t.FinishTime = now
	m.emitT(TraceDone, t.CoreID, t)
	t.App.NoteThreadDone(now)
	m.sched.ThreadDone(t)
	m.live--
	if m.live == 0 {
		m.done = true
		// Close out idle accounting before the engine stops.
		for _, c := range m.cores {
			if c.wasIdle {
				c.IdleTime += now - c.idleSince
				c.wasIdle = false
			}
		}
		m.eng.Stop()
	}
}
