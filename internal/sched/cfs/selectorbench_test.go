package cfs_test

import (
	"fmt"
	"sort"
	"testing"

	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/sim"
	"colab/internal/task"
)

// The original CFS monolith kept each core's timeline in a red-black tree;
// the pipeline's shared RunQueues keep an insertion-ordered slice scanned
// linearly (docs/TUNING.md records why). This file checks that the linear
// queues still order threads exactly as the CFS timeline does, and
// benchmarks their dispatch cycle at per-queue depths bracketing what a
// saturated 128-core machine actually sees.

// refEntry is one thread on the reference timeline, keyed like CFS by
// vruntime at push time with push order breaking ties.
type refEntry struct {
	t   *task.Thread
	vr  sim.Time
	seq uint64
}

// refTimeline is the reference model: one core's timeline as a slice kept
// sorted by (vruntime at push, push order), so the leftmost allowed entry
// is the CFS pick and the rightmost allowed entry the CFS steal.
type refTimeline struct {
	es    []refEntry
	seq   uint64
	minVR sim.Time
}

func (r *refTimeline) push(t *task.Thread) {
	r.seq++
	e := refEntry{t: t, vr: t.VRuntime, seq: r.seq}
	i := sort.Search(len(r.es), func(i int) bool {
		return r.es[i].vr > e.vr || (r.es[i].vr == e.vr && r.es[i].seq > e.seq)
	})
	r.es = append(r.es, refEntry{})
	copy(r.es[i+1:], r.es[i:])
	r.es[i] = e
}

func (r *refTimeline) remove(i int) *task.Thread {
	t := r.es[i].t
	r.es = append(r.es[:i], r.es[i+1:]...)
	return t
}

// popMinAllowed removes and returns the leftmost thread allowed on dest.
func (r *refTimeline) popMinAllowed(dest int) *task.Thread {
	for i, e := range r.es {
		if e.t.AllowedOn(dest) {
			r.minVR = max(r.minVR, e.vr)
			return r.remove(i)
		}
	}
	return nil
}

// stealMaxAllowed removes and returns the rightmost thread allowed on dest.
func (r *refTimeline) stealMaxAllowed(dest int) *task.Thread {
	for i := len(r.es) - 1; i >= 0; i-- {
		if r.es[i].t.AllowedOn(dest) {
			return r.remove(i)
		}
	}
	return nil
}

// The linear queues must agree with the reference timeline on pop and
// steal order, and on the vruntime floor, under random mixed traffic with
// many vruntime ties.
func TestLinearAndRbtreeTimelinesAgree(t *testing.T) {
	rng := mathx.NewRNG(7)
	lin := kernel.NewRunQueues(1)
	ref := &refTimeline{}
	for id := 0; id < 2000; id++ {
		switch op := rng.IntN(4); {
		case op <= 1 || len(ref.es) == 0: // push a fresh thread
			th := &task.Thread{ID: id, VRuntime: sim.Time(rng.IntN(50))}
			th.Affinity = task.MaskAll()
			if rng.IntN(8) == 0 {
				th.Affinity = task.MaskOf([]int{1}) // not allowed on core 0
			}
			lin.Push(0, th)
			ref.push(th)
		case op == 2:
			if a, b := lin.PopMinAllowed(0, 0), ref.popMinAllowed(0); a != b {
				t.Fatalf("op %d: PopMin diverged: linear %d, reference %d", id, tid(a), tid(b))
			}
		default:
			if a, b := lin.StealMaxAllowed(0, 0), ref.stealMaxAllowed(0); a != b {
				t.Fatalf("op %d: StealMax diverged: linear %d, reference %d", id, tid(a), tid(b))
			}
		}
		if lin.Len(0) != len(ref.es) || lin.MinVR(0) != ref.minVR {
			t.Fatalf("op %d: linear holds %d (floor %d), reference %d (floor %d)",
				id, lin.Len(0), lin.MinVR(0), len(ref.es), ref.minVR)
		}
	}
}

// tid names a popped thread by ID, -1 for none.
func tid(t *task.Thread) int {
	if t == nil {
		return -1
	}
	return t.ID
}

// BenchmarkRunQueueDispatch times one dispatch cycle of the linear run
// queues (pop leftmost allowed, advance vruntime, push back) across
// per-queue depths. A saturated 128-core machine with ~512 runnable
// threads holds ~4 threads per queue; depth 64+ only occurs when a single
// queue absorbs an entire machine's backlog.
func BenchmarkRunQueueDispatch(b *testing.B) {
	for _, depth := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			q := kernel.NewRunQueues(1)
			for i := 0; i < depth; i++ {
				q.Push(0, &task.Thread{ID: i, VRuntime: sim.Time(i * 1000), Affinity: task.MaskAll()})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := q.PopMinAllowed(0, 0)
				t.VRuntime += sim.Time(1000 * depth)
				q.Push(0, t)
			}
		})
	}
}
