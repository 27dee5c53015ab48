package kernel_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// recordingLabeler checks every labeling pass the pipeline drives against
// the live set the test witnesses through trace events, and records when
// each pass fell.
type recordingLabeler struct {
	t    *testing.T
	pc   *kernel.PipelineContext
	live map[string]bool // admitted, unretired threads, by trace identity
	at   []sim.Time
	// peak, shrank and empty show the mix exercised retirements between
	// passes and a quiet machine waiting for an arrival.
	peak, shrank, empty int
}

func (l *recordingLabeler) Name() string                     { return "recording.labeler" }
func (l *recordingLabeler) Start(pc *kernel.PipelineContext) { l.pc = pc }

func (l *recordingLabeler) Label(threads []*task.Thread) {
	m := l.pc.Machine()
	now := m.Now()
	l.at = append(l.at, now)
	if m.Done() {
		l.t.Errorf("pass at %v after the machine was done", now)
	}
	for i, th := range threads {
		if i > 0 && th.ID <= threads[i-1].ID {
			l.t.Errorf("pass at %v: thread IDs %d then %d, want strictly ascending", now, threads[i-1].ID, th.ID)
		}
		if !l.live[th.String()] {
			l.t.Errorf("pass at %v lists %v, which is not admitted or has retired", now, th)
		}
	}
	if len(threads) != len(l.live) {
		l.t.Errorf("pass at %v lists %d threads, want the %d live ones", now, len(threads), len(l.live))
	}
	if len(threads) == 0 {
		l.empty++
	}
	if len(threads) > l.peak {
		l.peak = len(threads)
	} else if len(threads) < l.peak {
		l.shrank++
	}
}

// TestLabelingPassContract holds the pipeline to the Labeler contract on
// an open-arrival mix in which threads retire and the machine idles until
// a late arrival: passes fall at consecutive multiples of
// kernel.LabelInterval, the empty ones included, and none once the machine
// is done, even if the engine is stepped on; each hands the labeler
// exactly the admitted, unretired threads, in strictly ascending ID order.
// The live set is witnessed independently, through the admit and done
// trace events.
func TestLabelingPassContract(t *testing.T) {
	spec, err := workload.ResolveSpec("Sync-2+ferret:2@arrive=poisson(15ms)+radix:2@arrive=uniform(0,60ms)+fft:1@arrive=2s")
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	lab := &recordingLabeler{t: t, live: map[string]bool{}}
	sched, err := kernel.NewPipeline("", lab, cfs.NewAllocator(), cfs.NewSelector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(cpu.Config2B2S, sched, w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	apps := map[string]*task.App{}
	for _, a := range w.Apps {
		apps[a.Name] = a
	}
	var finish sim.Time
	lateAdmits := 0
	m.SetTracer(func(e kernel.TraceEvent) {
		switch e.Kind {
		case kernel.TraceAdmit:
			if e.At > 0 {
				lateAdmits++
			}
			for _, th := range apps[e.Thread].Threads {
				lab.live[th.String()] = true
			}
		case kernel.TraceDone:
			delete(lab.live, e.Thread)
			finish = e.At
		}
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// Stepping the engine on must not wake the labeler: the pending pass
	// lapses instead of re-arming.
	passes := len(lab.at)
	for i := 0; i < 1000 && m.Engine().Step(); i++ {
	}
	if len(lab.at) != passes {
		t.Fatalf("%d passes after the machine was done", len(lab.at)-passes)
	}
	if lateAdmits == 0 || lab.shrank == 0 || lab.empty == 0 {
		t.Fatalf("the mix must admit apps after time zero (%d did), retire threads between passes (%d passes saw fewer than the peak) and idle before an arrival (%d empty passes)",
			lateAdmits, lab.shrank, lab.empty)
	}
	for i, at := range lab.at {
		if want := sim.Time(i+1) * kernel.LabelInterval; at != want {
			t.Fatalf("pass %d at %dns, want %dns", i, int64(at), int64(want))
		}
	}
	// A pass due at the final retirement's instant may fall on either side
	// of it; every earlier multiple must have had its pass.
	if next := sim.Time(len(lab.at)+1) * kernel.LabelInterval; next < finish {
		t.Fatalf("passes stopped at %v, before the machine finished at %v", next-kernel.LabelInterval, finish)
	}
}
