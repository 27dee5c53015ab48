package task

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/sim"
)

func TestProgramTotalWork(t *testing.T) {
	p := Program{
		Compute{Work: 10},
		Lock{ID: 1},
		Compute{Work: 5},
		Unlock{ID: 1},
		Barrier{ID: 2, Parties: 4},
	}
	if w := p.TotalWork(); w != 15 {
		t.Fatalf("TotalWork = %v", w)
	}
	if (Program{}).TotalWork() != 0 {
		t.Fatalf("empty program work must be 0")
	}
}

func TestMaskOfAndAllowedOn(t *testing.T) {
	mask := MaskOf([]int{0, 2, 5})
	th := &Thread{Affinity: mask}
	for core, want := range map[int]bool{0: true, 1: false, 2: true, 5: true, 6: false} {
		if th.AllowedOn(core) != want {
			t.Errorf("AllowedOn(%d) = %v", core, !want)
		}
	}
	if th.AllowedOn(-1) || th.AllowedOn(64) {
		t.Errorf("unset cores must be disallowed")
	}
	if !MaskOf([]int{-3, cpu.MaxCores + 1}).IsEmpty() {
		t.Errorf("invalid indices must be ignored")
	}
	all := &Thread{Affinity: MaskAll()}
	if !all.AllowedOn(0) || !all.AllowedOn(63) || !all.AllowedOn(cpu.MaxCores-1) {
		t.Errorf("MaskAll must allow everything in range")
	}
	if all.AllowedOn(cpu.MaxCores) {
		t.Errorf("MaskAll must stop at the core universe bound")
	}
}

func TestCurrentOpAndStates(t *testing.T) {
	th := &Thread{Program: Program{Compute{Work: 1}, Sleep{Duration: 5}}}
	if _, ok := th.CurrentOp().(Compute); !ok {
		t.Fatalf("first op not compute")
	}
	th.PC = 2
	if th.CurrentOp() != nil {
		t.Fatalf("retired thread must have nil op")
	}
	for s, want := range map[State]string{
		New: "new", Ready: "ready", Running: "running", Blocked: "blocked", Done: "done",
	} {
		if s.String() != want {
			t.Errorf("State(%d) = %q", int(s), s.String())
		}
	}
}

func TestAppCompletionBookkeeping(t *testing.T) {
	app := &App{ID: 1, Name: "x"}
	t1 := &Thread{App: app, Name: "a"}
	t2 := &Thread{App: app, Name: "b"}
	app.Threads = []*Thread{t1, t2}
	app.NoteThreadDone(100)
	if app.FinishTime != 0 {
		t.Fatalf("one of two threads done set finish time %v", app.FinishTime)
	}
	app.NoteThreadDone(250)
	if app.FinishTime != 250 {
		t.Fatalf("finish time = %v, want 250", app.FinishTime)
	}
	app.StartTime = 50
	if app.TurnaroundTime() != 200 {
		t.Fatalf("turnaround = %v", app.TurnaroundTime())
	}
}

func TestWorkloadThreadsOrder(t *testing.T) {
	a1 := &App{ID: 0, Name: "a"}
	a1.Threads = []*Thread{{App: a1, Name: "a0"}, {App: a1, Name: "a1"}}
	a2 := &App{ID: 1, Name: "b"}
	a2.Threads = []*Thread{{App: a2, Name: "b0"}}
	w := &Workload{Name: "w", Apps: []*App{a1, a2}}
	if w.NumThreads() != 3 {
		t.Fatalf("NumThreads = %d", w.NumThreads())
	}
	ths := w.Threads()
	if ths[0].Name != "a0" || ths[2].Name != "b0" {
		t.Fatalf("thread order broken")
	}
}

func TestThreadStringAndReadyAccounting(t *testing.T) {
	app := &App{Name: "app"}
	th := &Thread{App: app, Name: "t0", Profile: cpu.WorkProfile{ILP: 0.5}}
	if th.String() != "app/t0" {
		t.Fatalf("String = %q", th.String())
	}
	th.MarkReadyAt(10 * sim.Millisecond)
	th.AccrueReadyWait(15 * sim.Millisecond)
	if th.ReadyTime != 5*sim.Millisecond {
		t.Fatalf("ReadyTime = %v", th.ReadyTime)
	}
}
