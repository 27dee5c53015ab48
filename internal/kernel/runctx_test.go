package kernel_test

import (
	"context"
	"errors"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/task"
)

// longApp is a workload big enough to span multiple context-check
// intervals: six threads x 16s of little-core work rotates through tens of
// thousands of dispatch/rotate events.
func longApp() *task.Workload {
	var profiles []cpu.WorkProfile
	var progs []task.Program
	for i := 0; i < 6; i++ {
		p := fastProfile
		if i%2 == 1 {
			p = slowProfile
		}
		profiles = append(profiles, p)
		progs = append(progs, task.Program{task.Compute{Work: 16e9}})
	}
	app := mkApp(0, "long", profiles, progs)
	return &task.Workload{Name: "long", Apps: []*task.App{app}}
}

func TestRunContextCancelledBeforeStart(t *testing.T) {
	m, err := kernel.NewMachine(cpu.Config2B2S, cfs.New(), longApp(), kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.RunContext(ctx)
	if err == nil {
		t.Fatal("cancelled context must abort the run")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap ctx.Err(): %v", err)
	}
}

func TestRunContextCancelledMidRun(t *testing.T) {
	m, err := kernel.NewMachine(cpu.Config2B2S, cfs.New(), longApp(), kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from inside the simulation: the first dispatch event fires well
	// before the workload completes, so the loop must notice the done
	// context at the next check and bail out mid-run.
	dispatched := false
	m.SetTracer(func(ev kernel.TraceEvent) {
		if ev.Kind == kernel.TraceDispatch && !dispatched {
			dispatched = true
			cancel()
		}
	})
	_, err = m.RunContext(ctx)
	if !dispatched {
		t.Fatal("tracer never saw a dispatch")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation not surfaced as wrapped ctx.Err(): %v", err)
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	run := func(viaCtx bool) *kernel.Result {
		m, err := kernel.NewMachine(cpu.Config2B2S, cfs.New(), longApp(), kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		var res *kernel.Result
		if viaCtx {
			res, err = m.RunContext(context.Background())
		} else {
			res, err = m.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(false), run(true)
	if a.EndTime != b.EndTime || a.TotalSwitches != b.TotalSwitches || a.TotalMigrations != b.TotalMigrations {
		t.Fatalf("RunContext(Background) diverged from Run: end %v vs %v", a.EndTime, b.EndTime)
	}
}
