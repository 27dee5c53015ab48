package kernel_test

import (
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
)

func twoAppResult(t *testing.T) *kernel.Result {
	t.Helper()
	a := mkApp(0, "first", []cpu.WorkProfile{slowProfile}, []task.Program{{task.Compute{Work: 10e6}}})
	b := mkApp(1, "second", []cpu.WorkProfile{slowProfile}, []task.Program{{task.Compute{Work: 30e6}}})
	w := &task.Workload{Name: "two", Apps: []*task.App{a, b}}
	return runOn(t, cpu.NewSymmetric(cpu.Little, 2), cfs.New(), w)
}

func TestResultAccessors(t *testing.T) {
	res := twoAppResult(t)
	first, ok := res.AppTurnaround("first")
	if !ok || first <= 0 {
		t.Fatalf("first turnaround missing")
	}
	second, _ := res.AppTurnaround("second")
	if res.Makespan() != second {
		t.Fatalf("makespan %v != slowest app %v", res.Makespan(), second)
	}
	if _, ok := res.AppTurnaround("nope"); ok {
		t.Fatalf("unknown app resolved")
	}
	if res.Events == 0 {
		t.Fatalf("no events recorded")
	}
}

func TestWriteSummaryContents(t *testing.T) {
	res := twoAppResult(t)
	var sb strings.Builder
	res.WriteSummary(&sb)
	out := sb.String()
	for _, want := range []string{"first", "second", "linux", "cpu0", "energy", "migrations"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestTraceEventString(t *testing.T) {
	e := kernel.TraceEvent{At: 3 * sim.Millisecond, Kind: kernel.TraceDispatch, Core: 1, Thread: "app/t0"}
	s := e.String()
	if !strings.Contains(s, "cpu1") || !strings.Contains(s, "dispatch") || !strings.Contains(s, "app/t0") {
		t.Fatalf("trace line %q", s)
	}
	idle := kernel.TraceEvent{At: 1, Kind: kernel.TraceIdle, Core: 2}
	if !strings.Contains(idle.String(), "idle") {
		t.Fatalf("idle line %q", idle.String())
	}
	wake := kernel.TraceEvent{At: 1, Kind: kernel.TraceWake, Core: -1, Thread: "x"}
	if !strings.Contains(wake.String(), "wake") {
		t.Fatalf("wake line %q", wake.String())
	}
}

func TestWriteTracer(t *testing.T) {
	var sb strings.Builder
	tr := kernel.WriteTracer(&sb)
	tr(kernel.TraceEvent{At: 5, Kind: kernel.TraceDone, Core: 0, Thread: "a/b"})
	if !strings.Contains(sb.String(), "done") {
		t.Fatalf("tracer wrote %q", sb.String())
	}
}

func TestMachineValidation(t *testing.T) {
	app := mkApp(0, "x", []cpu.WorkProfile{slowProfile}, []task.Program{{task.Compute{Work: 1}}})
	w := &task.Workload{Name: "x", Apps: []*task.App{app}}
	if _, err := kernel.NewMachine(cpu.Config{Name: "none"}, cfs.New(), w, kernel.Params{}); err == nil {
		t.Errorf("empty config must be rejected")
	}
	if _, err := kernel.NewMachine(cpu.Config2B2S, cfs.New(), &task.Workload{Name: "e"}, kernel.Params{}); err == nil {
		t.Errorf("empty workload must be rejected")
	}
	empty := &task.Workload{Name: "e", Apps: []*task.App{{ID: 0, Name: "nothreads"}}}
	if _, err := kernel.NewMachine(cpu.Config2B2S, cfs.New(), empty, kernel.Params{}); err == nil {
		t.Errorf("threadless app must be rejected")
	}
}

func TestKickIsSafe(t *testing.T) {
	app := mkApp(0, "k", []cpu.WorkProfile{slowProfile}, []task.Program{{task.Compute{Work: 1e6}}})
	w := &task.Workload{Name: "k", Apps: []*task.App{app}}
	m, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 2), cfs.New(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	m.Kick(-1) // out of range: no-op
	m.Kick(99)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
}
