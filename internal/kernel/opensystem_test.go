package kernel_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/policy"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
)

// openPair is a closed app at time zero plus one arriving at the offset.
func openPair(arrival sim.Time) *task.Workload {
	const work = 10e6
	a := mkApp(0, "early", []cpu.WorkProfile{fastProfile}, []task.Program{{task.Compute{Work: work}}})
	b := mkApp(1, "late", []cpu.WorkProfile{fastProfile}, []task.Program{{task.Compute{Work: work}}})
	b.Arrival = arrival
	return &task.Workload{Name: "open", Apps: []*task.App{a, b}}
}

// A late app must be invisible before its arrival and its turnaround must
// be measured from arrival, not from time zero.
func TestOpenSystemAdmissionTiming(t *testing.T) {
	const arrival = 5 * sim.Millisecond
	w := openPair(arrival)
	var admits []kernel.TraceEvent
	var firstLateDispatch sim.Time = -1
	m, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 1), cfs.New(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetTracer(func(e kernel.TraceEvent) {
		switch {
		case e.Kind == kernel.TraceAdmit:
			admits = append(admits, e)
		case e.Kind == kernel.TraceDispatch && e.Thread == "late/late-t0" && firstLateDispatch < 0:
			firstLateDispatch = e.At
		}
	})
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(admits) != 2 {
		t.Fatalf("admit events = %d, want 2", len(admits))
	}
	if admits[0].At != 0 || admits[0].Thread != "early" {
		t.Fatalf("first admit = %+v, want early at 0", admits[0])
	}
	if admits[1].At != arrival || admits[1].Thread != "late" {
		t.Fatalf("second admit = %+v, want late at %v", admits[1], arrival)
	}
	if firstLateDispatch < arrival {
		t.Fatalf("late app dispatched at %v, before its arrival %v", firstLateDispatch, arrival)
	}
	var late kernel.AppResult
	for _, a := range res.Apps {
		if a.Name == "late" {
			late = a
		}
	}
	if late.Arrival != arrival {
		t.Fatalf("late arrival recorded as %v", late.Arrival)
	}
	// On one little core the early app (10ms of work) still holds the core
	// at t=5ms, so the late app finishes well after arrival+work, but its
	// turnaround must exclude the 5ms it had not yet arrived.
	wall := late.Turnaround + late.Arrival
	if late.Turnaround <= 0 || wall <= late.Turnaround {
		t.Fatalf("turnaround not measured from arrival: turnaround=%v arrival=%v", late.Turnaround, late.Arrival)
	}
}

// An app arriving after every earlier thread finished must still be
// admitted (the pending admission event keeps the engine alive) and run to
// completion on an otherwise quiet machine.
func TestOpenSystemArrivalAfterQuiescence(t *testing.T) {
	const arrival = 500 * sim.Millisecond // far beyond the early app's ~10ms
	w := openPair(arrival)
	res := runOn(t, cpu.NewSymmetric(cpu.Little, 1), cfs.New(), w)
	for _, a := range res.Apps {
		if a.Turnaround <= 0 {
			t.Fatalf("app %s unfinished: %+v", a.Name, a)
		}
	}
	if res.EndTime <= arrival {
		t.Fatalf("simulation ended at %v, before the late arrival %v", res.EndTime, arrival)
	}
}

// Negative arrivals are rejected at machine construction.
func TestNegativeArrivalRejected(t *testing.T) {
	w := openPair(-sim.Millisecond)
	if _, err := kernel.NewMachine(cpu.Config2B2S, cfs.New(), w, kernel.Params{}); err == nil {
		t.Fatal("negative arrival must error")
	}
}

// Mid-run admission must behave identically across repeated runs under a
// policy with periodic labeling state (COLAB), including synchronising
// apps that block at birth.
func TestOpenSystemDeterministicUnderCOLAB(t *testing.T) {
	build := func() *task.Workload {
		const work = 4e6
		// Producer/consumer app arriving mid-run: consumer blocks at birth.
		progA := task.Program{task.Compute{Work: 20e6}}
		a := mkApp(0, "base", []cpu.WorkProfile{fastProfile}, []task.Program{progA})
		var prod, cons task.Program
		for i := 0; i < 6; i++ {
			prod = append(prod, task.Compute{Work: work}, task.Put{ID: 1})
			cons = append(cons, task.Get{ID: 1}, task.Compute{Work: work})
		}
		b := mkApp(1, "pipe", []cpu.WorkProfile{fastProfile, slowProfile},
			[]task.Program{prod, cons}, task.QueueSpec{ID: 1, Capacity: 2})
		b.Arrival = 3 * sim.Millisecond
		return &task.Workload{Name: "open-colab", Apps: []*task.App{a, b}}
	}
	fingerprint := func() string {
		var sb []byte
		m, err := kernel.NewMachine(cpu.Config2B2S, builtin(policy.COLAB)(), build(), kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		m.SetTracer(func(e kernel.TraceEvent) { sb = append(sb, []byte(e.String()+"\n")...) })
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return string(sb)
	}
	if a, b := fingerprint(), fingerprint(); a != b {
		t.Fatal("open-system trace differs across identical runs")
	}
}
