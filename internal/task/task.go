// Package task defines the workload-side model: applications composed of
// threads, and the small program DSL threads execute on the simulated
// machine (compute segments, futex-backed locks, barriers and bounded
// queues).
//
// A thread's program is the stand-in for a PARSEC/SPLASH-2 benchmark
// thread: it interleaves compute work (whose speed depends on the core type
// and the thread's hidden cpu.WorkProfile) with synchronisation that
// produces the blocking patterns the COLAB bottleneck detector feeds on.
package task

import (
	"fmt"

	"colab/internal/cpu"
	"colab/internal/sim"
)

// State is the lifecycle state of a thread.
type State int

const (
	// New threads have not been admitted to the machine yet.
	New State = iota
	// Ready threads sit in some run queue.
	Ready
	// Running threads occupy a core.
	Running
	// Blocked threads wait on a futex (lock, barrier or queue).
	Blocked
	// Done threads have retired their whole program.
	Done
)

// String names the state.
func (s State) String() string {
	switch s {
	case New:
		return "new"
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Op is one step of a thread program.
type Op interface{ isOp() }

// Compute retires Work work units. One work unit is calibrated as one
// nanosecond of little-core execution; a big core retires the thread's
// TrueSpeedup units per nanosecond.
type Compute struct{ Work float64 }

// Lock acquires the mutex built on futex ID (blocking when contended).
type Lock struct{ ID int }

// Unlock releases the mutex on futex ID, waking one waiter.
type Unlock struct{ ID int }

// Barrier joins barrier ID; the thread blocks until Parties threads of the
// same application have arrived, then all are released.
type Barrier struct {
	ID      int
	Parties int
}

// Put produces one item into the application's bounded queue ID, blocking
// while the queue is full.
type Put struct{ ID int }

// Get consumes one item from the application's bounded queue ID, blocking
// while the queue is empty.
type Get struct{ ID int }

// Sleep suspends the thread for a fixed simulated duration (I/O or think
// time); it does not assign blocking blame to anyone.
type Sleep struct{ Duration sim.Time }

// Phase switches the thread's active work profile, modelling program phase
// changes (e.g. an FFT alternating compute butterflies with memory-bound
// transposes). Phase behaviour is why the speedup model predicts from the
// current labeling interval's counters rather than lifetime totals.
type Phase struct{ Profile cpu.WorkProfile }

func (Compute) isOp() {}
func (Lock) isOp()    {}
func (Unlock) isOp()  {}
func (Barrier) isOp() {}
func (Put) isOp()     {}
func (Get) isOp()     {}
func (Sleep) isOp()   {}
func (Phase) isOp()   {}

// Program is the ordered op list of one thread.
type Program []Op

// TotalWork sums the compute work in the program, in work units.
func (p Program) TotalWork() float64 {
	s := 0.0
	for _, op := range p {
		if c, ok := op.(Compute); ok {
			s += c.Work
		}
	}
	return s
}

// QueueSpec declares a bounded queue used by an application's Put/Get ops.
type QueueSpec struct {
	ID       int
	Capacity int
}

// App is one application (benchmark instance) in a workload: a set of
// threads plus the queues they share. Futex and barrier IDs are scoped to
// the app by the kernel.
type App struct {
	ID      int
	Name    string
	Threads []*Thread
	Queues  []QueueSpec

	// Arrival is when the app enters the system. Zero (the closed-system
	// default) admits the app at simulation start; a positive time makes the
	// kernel admit it through a timestamped admission event, modelling an
	// open system where work arrives while earlier apps run. Turnaround is
	// measured from Arrival, not from time zero.
	Arrival sim.Time

	// Runtime results, filled by the kernel.
	StartTime  sim.Time
	FinishTime sim.Time
	finished   int
}

// NumThreads returns the thread count of the app.
func (a *App) NumThreads() int { return len(a.Threads) }

// Instance returns a fresh, runnable copy of the app: new App and Thread
// runtime state over the same Program and Queues slices, which no run
// writes. Only the static fields are copied (names, IDs, Queues, Arrival,
// and each thread's initial Profile and Affinity); the kernel rewrites
// Profile at Phase ops and policies narrow Affinity, so both are per-run
// copies. Instance it from a workload that has never run: a run's Profile
// and Affinity changes would otherwise be copied too.
func (a *App) Instance() *App {
	c := &App{ID: a.ID, Name: a.Name, Queues: a.Queues, Arrival: a.Arrival, Threads: make([]*Thread, len(a.Threads))}
	threads := make([]Thread, len(a.Threads))
	for i, t := range a.Threads {
		threads[i] = Thread{App: c, Name: t.Name, Profile: t.Profile, Program: t.Program, Affinity: t.Affinity}
		c.Threads[i] = &threads[i]
	}
	return c
}

// TurnaroundTime returns the app's completion time minus its start time.
// Valid only after the app finished.
func (a *App) TurnaroundTime() sim.Time { return a.FinishTime - a.StartTime }

// NoteThreadDone records one thread retiring; the kernel calls this.
func (a *App) NoteThreadDone(now sim.Time) {
	a.finished++
	if a.finished == len(a.Threads) {
		a.FinishTime = now
	}
}

// Thread is one schedulable entity. Static fields (program, profile) are
// set by the workload generator; runtime fields are owned by the kernel and
// the active scheduling policy.
type Thread struct {
	// Static identity.
	ID      int // dense global index within one simulation
	App     *App
	Name    string
	Profile cpu.WorkProfile
	Program Program

	// Runtime execution state (kernel-owned).
	State     State
	PC        int     // index of the current op
	Remaining float64 // work units left in the current Compute op
	CoreID    int     // core currently running (or last ran) the thread; -1 = never ran

	// Scheduling state.
	Affinity   Mask     // allowed-core set; policies may narrow it (WASH)
	VRuntime   sim.Time // CFS virtual runtime (scale-slice adjusts its growth)
	HomeDomain int      // LLC domain the thread's app was placed in at admission (0 on one-domain machines)

	// Accounting (kernel-owned).
	SumExec     sim.Time // total time on any core
	SumExecBig  sim.Time // total time on big cores
	WorkDone    float64  // work units retired
	WaitStart   sim.Time // when the thread last began a futex wait
	BlockBlame  sim.Time // cumulative time this thread made others wait (paper's criticality metric)
	BlockedTime sim.Time // cumulative time this thread spent blocked
	ReadyTime   sim.Time // cumulative time spent runnable-but-waiting
	readySince  sim.Time
	FinishTime  sim.Time

	// Performance counters (kernel-sampled).
	TotalCounters    cpu.Vec
	IntervalCounters cpu.Vec // since the last labeler interval; reset by policies

	// Event statistics.
	Migrations      int
	CrossDomainHops int // sum of LLC-domain hops over all migrations (0 on flat machines)
	Preemptions     int
	Switches        int
}

// AllowedOn reports whether the thread's affinity admits core index c.
func (t *Thread) AllowedOn(c int) bool { return t.Affinity.Allows(c) }

// CurrentOp returns the op at the program counter, or nil when retired.
func (t *Thread) CurrentOp() Op {
	if t.PC >= len(t.Program) {
		return nil
	}
	return t.Program[t.PC]
}

// MarkReadyAt starts the ready-wait accounting clock.
func (t *Thread) MarkReadyAt(now sim.Time) { t.readySince = now }

// AccrueReadyWait stops the ready-wait clock at now.
func (t *Thread) AccrueReadyWait(now sim.Time) {
	if t.readySince > 0 || now >= t.readySince {
		t.ReadyTime += now - t.readySince
	}
}

// String identifies the thread for traces and errors.
func (t *Thread) String() string {
	app := "?"
	if t.App != nil {
		app = t.App.Name
	}
	return fmt.Sprintf("%s/%s", app, t.Name)
}

// Workload is the unit the experiment harness runs: a named set of apps
// admitted together at time zero.
type Workload struct {
	Name string
	Apps []*App
}

// Instance returns a fresh, runnable copy of the workload (App.Instance of
// every app). A workload runs once; instancing a never-run build lets one
// build serve any number of runs, sequential or concurrent.
func (w *Workload) Instance() *Workload {
	c := &Workload{Name: w.Name, Apps: make([]*App, len(w.Apps))}
	for i, a := range w.Apps {
		c.Apps[i] = a.Instance()
	}
	return c
}

// NumThreads returns the total thread count across apps.
func (w *Workload) NumThreads() int {
	n := 0
	for _, a := range w.Apps {
		n += len(a.Threads)
	}
	return n
}

// Threads returns all threads across apps in ID order of declaration.
func (w *Workload) Threads() []*Thread {
	var out []*Thread
	for _, a := range w.Apps {
		out = append(out, a.Threads...)
	}
	return out
}
