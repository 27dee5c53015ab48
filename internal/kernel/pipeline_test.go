package kernel_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	colabsched "colab/internal/sched/colab"
	"colab/internal/sim"
	"colab/internal/task"
)

func rqThread(id int, vr sim.Time) *task.Thread {
	t := &task.Thread{ID: id, Affinity: task.MaskAll()}
	t.VRuntime = vr
	return t
}

// RunQueues must reproduce the CFS timeline semantics: PopMinAllowed
// returns by (vruntime, push order), advances the monotone floor, and
// StealMaxAllowed walks the timeline from the right honouring affinity.
func TestRunQueuesTimelineSemantics(t *testing.T) {
	q := kernel.NewRunQueues(2)
	a, b, c := rqThread(0, 30), rqThread(1, 10), rqThread(2, 10)
	a.Affinity = task.MaskOf([]int{0}) // a may not be stolen onto core 1
	q.Push(0, a)
	q.Push(0, b)
	q.Push(0, c)
	if got := q.Len(0); got != 3 {
		t.Fatalf("Len = %d", got)
	}
	if got := q.QueuedOn(b); got != 0 {
		t.Fatalf("QueuedOn = %d", got)
	}
	// b and c tie on vruntime: push order (b first) must break the tie.
	if got := q.PopMinAllowed(0, 0); got != b {
		t.Fatalf("PopMinAllowed = %v, want b", got)
	}
	if got := q.MinVR(0); got != 10 {
		t.Fatalf("MinVR = %v, want 10 after popping vr=10", got)
	}
	// StealMaxAllowed from the right: a (vr=30) first, but its affinity
	// keeps it off core 1.
	if got := q.StealMaxAllowed(0, 1); got != c {
		t.Fatalf("StealMaxAllowed = %v, want c", got)
	}
	if got := q.MinVR(0); got != 10 {
		t.Fatalf("steals must not advance the floor: MinVR = %v", got)
	}
	if !q.Remove(a) {
		t.Fatal("Remove(a) failed")
	}
	if q.Remove(a) {
		t.Fatal("double Remove must report false")
	}
	if got := q.PopMinAllowed(0, 0); got != nil {
		t.Fatalf("drained queue returned %v", got)
	}
}

// Double-enqueueing a thread is an allocator bug the queues must surface
// loudly.
func TestRunQueuesDoubleEnqueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double Push must panic")
		}
	}()
	q := kernel.NewRunQueues(2)
	th := rqThread(0, 0)
	q.Push(0, th)
	q.Push(1, th)
}

// The hint board hands out the neutral pre-observation defaults, one entry
// per thread ID (growing past its initial size), and the run queues' Each
// iterates in insertion order (the COLAB criticality-scan order).
func TestHintDefaultsAndEachOrder(t *testing.T) {
	b := kernel.NewHintBoard(4)
	th := rqThread(7, 0)
	h := b.Get(th)
	if h.TargetTier != -1 || h.Pred != kernel.NeutralPred || h.Util != kernel.NeutralUtil {
		t.Fatalf("neutral hint = %+v", *h)
	}
	if b.Get(th) != h {
		t.Fatal("Get must be stable per thread")
	}
	if other := b.Get(rqThread(3, 0)); other == h || b.Get(th) != h {
		t.Fatal("threads must not share a hint")
	}
	b.Drop(th)
	if b.Get(th) == h {
		t.Fatal("Drop must forget the entry")
	}
	b.Drop(rqThread(99, 0)) // an ID the board never saw: a no-op

	q := kernel.NewRunQueues(1)
	order := []*task.Thread{rqThread(1, 5), rqThread(2, 1), rqThread(3, 9)}
	for _, th := range order {
		q.Push(0, th)
	}
	i := 0
	q.Each(0, func(got *task.Thread) {
		if got != order[i] {
			t.Fatalf("Each[%d] = %v, want %v", i, got, order[i])
		}
		i++
	})
	if i != len(order) {
		t.Fatalf("Each visited %d of %d", i, len(order))
	}
}

// NewPipeline rejects stage combinations without the mechanical base and
// derives names from the stages present.
func TestNewPipelineValidation(t *testing.T) {
	if _, err := kernel.NewPipeline("x", nil, nil, nil, nil); err == nil {
		t.Fatal("missing allocator must error")
	}
}

// A hybrid pairing an affinity-blind allocator (COLAB treats queues as
// bags) with the CFS selector must still honour thread affinity: the
// selector-side filter is what keeps a little-pinned thread off the big
// cores when the allocator queues it anywhere.
func TestPipelineHybridHonoursAffinity(t *testing.T) {
	const work = 20e6
	app := mkApp(0, "pin", []cpu.WorkProfile{fastProfile, fastProfile, slowProfile, slowProfile},
		[]task.Program{
			{task.Compute{Work: work}},
			{task.Compute{Work: work}},
			{task.Compute{Work: work}},
			{task.Compute{Work: work}},
		})
	pinned := app.Threads[0]
	pinned.Affinity = task.MaskOf([]int{2, 3}) // 2B2S big-first: cores 2,3 are little
	w := &task.Workload{Name: "pin", Apps: []*task.App{app}}
	sched, err := kernel.NewPipeline("hybrid-affinity",
		nil, colabsched.NewAllocator(false), cfs.NewSelector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	res := runOn(t, cpu.Config2B2S, sched, w)
	for _, tr := range res.Threads {
		if tr.Name == pinned.Name && tr.SumExecBig != 0 {
			t.Fatalf("little-pinned thread ran %v on big cores through the hybrid pipeline", tr.SumExecBig)
		}
	}
	if res.EndTime <= 0 {
		t.Fatal("workload did not finish")
	}
}
