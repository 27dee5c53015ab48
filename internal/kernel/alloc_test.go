package kernel

// White-box allocation assertions for the big-machine hot path. This file
// lives in package kernel (not kernel_test) so it can admit a workload with
// m.start() and then drive the engine one event at a time: steady-state
// dispatch — burst end, rotate, re-enqueue, pick-next, burst start — must
// not allocate, and neither may RunQueues insertion once the queue slices
// have reached capacity. The stages here are deliberately minimal
// (least-loaded placement, leftmost-allowed selection) so the test pins the
// kernel's own path without dragging a policy package into an import cycle.

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/sim"
	"colab/internal/task"
)

type allocLeastLoaded struct{ pc *PipelineContext }

func (a *allocLeastLoaded) Name() string              { return "least-loaded" }
func (a *allocLeastLoaded) Start(pc *PipelineContext) { a.pc = pc }

func (a *allocLeastLoaded) Enqueue(t *task.Thread, wakeup bool) int {
	q := a.pc.Queues()
	best := -1
	for i := 0; i < q.NumQueues(); i++ {
		if !t.AllowedOn(i) {
			continue
		}
		if best < 0 || q.Len(i) < q.Len(best) {
			best = i
		}
	}
	q.Push(best, t)
	return best
}

type selLeftmost struct{ pc *PipelineContext }

func (s *selLeftmost) Name() string              { return "leftmost" }
func (s *selLeftmost) Start(pc *PipelineContext) { s.pc = pc }

func (s *selLeftmost) PickNext(c *Core) *task.Thread {
	return s.pc.Queues().PopMinAllowed(c.ID, c.ID)
}

func (s *selLeftmost) TimeSlice(c *Core, t *task.Thread) sim.Time    { return sim.Millisecond }
func (s *selLeftmost) VRuntimeScale(c *Core, t *task.Thread) float64 { return 1 }
func (s *selLeftmost) WakeupPreempt(c *Core, t *task.Thread) bool    { return false }

// bigMachineSpin builds a 128-core tri-gear machine running 256 compute-only
// threads (two per core) with effectively infinite work, half of them pinned
// to masks spanning cores past 63 so the >64-core Allows path is on the
// measured loop. Rotation via slice expiry keeps every dispatch mechanism
// hot forever.
func bigMachineSpin(t testing.TB) *Machine {
	profile := cpu.WorkProfile{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.3, FPRate: 0.2}
	app := &task.App{ID: 0, Name: "spin"}
	var highHalf task.Mask
	for c := 32; c < 128; c++ {
		highHalf.Set(c)
	}
	for i := 0; i < 256; i++ {
		th := &task.Thread{
			App:     app,
			Name:    "spin",
			Profile: profile,
			Program: task.Program{task.Compute{Work: 1e15}},
		}
		if i%2 == 1 {
			th.Affinity = highHalf
		}
		app.Threads = append(app.Threads, th)
	}
	w := &task.Workload{Name: "spin", Apps: []*task.App{app}}
	sched, err := NewPipeline("alloc-probe", nil, &allocLeastLoaded{}, &selLeftmost{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cpu.NewTieredConfig(cpu.TriGearTiers(), []int{64, 32, 32}, true), sched, w, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSteadyStateDispatchDoesNotAllocate admits the spin workload, lets the
// machine reach steady state (event freelist filled, queue slices and the
// engine heap at capacity), then asserts the event loop runs allocation-free.
func TestSteadyStateDispatchDoesNotAllocate(t *testing.T) {
	m := bigMachineSpin(t)
	m.start()
	eng := m.Engine()
	for i := 0; i < 50000; i++ {
		if !eng.Step() {
			t.Fatalf("engine drained during warm-up at event %d", i)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 100; i++ {
			if !eng.Step() {
				t.Fatalf("engine drained during measurement")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state dispatch allocates: %.2f allocs per 100 events, want 0", avg)
	}
}

// TestRunQueueInsertionDoesNotAllocate pins the Push/PopMinAllowed cycle at
// zero allocations once the per-core entry slices have grown to capacity —
// including threads whose masks reach past core 63.
func TestRunQueueInsertionDoesNotAllocate(t *testing.T) {
	const depth = 64
	q := NewRunQueues(2)
	ths := make([]*task.Thread, depth)
	for i := range ths {
		ths[i] = &task.Thread{ID: i, VRuntime: sim.Time(i), Affinity: task.MaskOf([]int{0, 1, 100 + i})}
		q.Push(0, ths[i])
	}
	avg := testing.AllocsPerRun(1000, func() {
		th := q.PopMinAllowed(0, 0)
		th.VRuntime += depth
		q.Push(0, th)
	})
	if avg != 0 {
		t.Fatalf("queue insertion allocates: %.2f allocs/op, want 0", avg)
	}
	avg = testing.AllocsPerRun(1000, func() {
		th := q.StealMaxAllowed(0, 1)
		q.Push(0, th)
	})
	if avg != 0 {
		t.Fatalf("steal cycle allocates: %.2f allocs/op, want 0", avg)
	}
}

// selPreempting is selLeftmost with wake-up preemption always granted, so
// every deferred preemption check that finds its core busy preempts it.
type selPreempting struct{ selLeftmost }

func (s *selPreempting) WakeupPreempt(c *Core, t *task.Thread) bool { return true }

// syncSpin builds a 4-core machine running one 8-thread app that loops
// through every futex path: four producers and four consumers share a
// lock, hand items through a one-slot bounded queue and meet at an
// 8-party barrier each round. With twice as many threads as cores, most
// wake-ups land on busy cores and schedule preemption checks.
func syncSpin(t testing.TB) *Machine {
	const rounds = 4000
	profile := cpu.WorkProfile{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.3, FPRate: 0.2}
	app := &task.App{ID: 0, Name: "sync", Queues: []task.QueueSpec{{ID: 2, Capacity: 1}}}
	for i := 0; i < 8; i++ {
		handoff := task.Op(task.Put{ID: 2})
		if i >= 4 {
			handoff = task.Get{ID: 2}
		}
		var prog task.Program
		for r := 0; r < rounds; r++ {
			prog = append(prog,
				task.Compute{Work: float64(20000 + 5000*i)},
				task.Lock{ID: 0},
				task.Compute{Work: 10000},
				task.Unlock{ID: 0},
				handoff,
				task.Barrier{ID: 1, Parties: 8},
			)
		}
		app.Threads = append(app.Threads, &task.Thread{App: app, Name: "sync", Profile: profile, Program: prog})
	}
	w := &task.Workload{Name: "sync", Apps: []*task.App{app}}
	sched, err := NewPipeline("sync-probe", nil, &allocLeastLoaded{}, &selPreempting{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cpu.NewConfig(2, 2, true), sched, w, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSyncSteadyStateDoesNotAllocate drives the futex paths — lock
// handoff, barrier release, bounded-queue handoff in both directions — and
// the wake-up preemption checks they schedule: once the wait queues, the
// per-core pending-check FIFOs and the event slab have grown, the loop
// runs allocation-free.
func TestSyncSteadyStateDoesNotAllocate(t *testing.T) {
	m := syncSpin(t)
	m.start()
	eng := m.Engine()
	for i := 0; i < 20000; i++ {
		if !eng.Step() {
			t.Fatalf("engine drained during warm-up at event %d", i)
		}
	}
	preemptions := func() (n int) {
		for _, th := range m.threads {
			n += th.Preemptions
		}
		return n
	}
	before := preemptions()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if !eng.Step() {
				t.Fatalf("engine drained during measurement")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("sync steady state allocates: %.2f allocs per 100 events, want 0", avg)
	}
	if preemptions() == before {
		t.Fatal("no wake-up preemption during measurement: the checks are off the measured path")
	}
	if m.done {
		t.Fatal("workload finished during measurement")
	}
}

// sleepSpin builds a 4-core machine running four threads that alternate
// compute bursts with sleeps, so every round blocks each thread on a
// timed wake-up.
func sleepSpin(t testing.TB) *Machine {
	const rounds = 20000
	profile := cpu.WorkProfile{ILP: 0.5, BranchRate: 0.1, MemIntensity: 0.3, FPRate: 0.2}
	app := &task.App{ID: 0, Name: "sleep"}
	for i := 0; i < 4; i++ {
		var prog task.Program
		for r := 0; r < rounds; r++ {
			prog = append(prog,
				task.Compute{Work: float64(20000 + 5000*i)},
				task.Sleep{Duration: sim.Time(10+5*i) * sim.Microsecond},
			)
		}
		app.Threads = append(app.Threads, &task.Thread{App: app, Name: "sleep", Profile: profile, Program: prog})
	}
	w := &task.Workload{Name: "sleep", Apps: []*task.App{app}}
	sched, err := NewPipeline("sleep-probe", nil, &allocLeastLoaded{}, &selLeftmost{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(cpu.NewConfig(2, 2, true), sched, w, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSleepSteadyStateDoesNotAllocate drives the task.Sleep path: a
// sleep's timed wake-up reuses the callback bound at the thread's first
// sleep, so the compute/sleep loop runs allocation-free.
func TestSleepSteadyStateDoesNotAllocate(t *testing.T) {
	m := sleepSpin(t)
	m.start()
	eng := m.Engine()
	for i := 0; i < 20000; i++ {
		if !eng.Step() {
			t.Fatalf("engine drained during warm-up at event %d", i)
		}
	}
	blocked := func() (d sim.Time) {
		for _, th := range m.threads {
			d += th.BlockedTime
		}
		return d
	}
	before := blocked()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if !eng.Step() {
				t.Fatalf("engine drained during measurement")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("sleep steady state allocates: %.2f allocs per 100 events, want 0", avg)
	}
	if blocked() == before {
		t.Fatal("no thread slept during measurement: the sleep path is off the measured path")
	}
	if m.done {
		t.Fatal("workload finished during measurement")
	}
}
