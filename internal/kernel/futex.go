package kernel

import (
	"fmt"

	"colab/internal/task"
)

// The futex layer reproduces the paper's bottleneck identification (§4.1):
// every synchronisation primitive funnels through kernel wait queues; a
// waiter records its wait start (futex_wait_queue_me) and the thread that
// releases it accumulates the waiting period it ended (wake_futex). The
// accumulated "time this thread made others wait" is the criticality /
// blocking metric both WASH and COLAB consume.

// flock is a futex-backed mutex with FIFO handoff.
type flock struct {
	owner   *task.Thread
	waiters []*task.Thread
}

// fbarrier collects arrivals until the party count is met.
type fbarrier struct {
	arrived []*task.Thread
}

// fqueue is a bounded FIFO used by pipeline benchmarks.
type fqueue struct {
	capacity   int
	items      int
	getWaiters []*task.Thread
	putWaiters []*task.Thread
}

// appFutexes is the futex state of one application: synchronisation IDs
// are scoped to the app by App.ID, so apps sharing an ID share it.
type appFutexes struct {
	locks    map[int]*flock
	barriers map[int]*fbarrier
	queues   map[int]*fqueue
	// decl holds the declared queues of every app with this ID, in
	// workload order.
	decl []task.QueueSpec
}

// newFutexes resolves every app's futex state once and returns it per
// thread ID (IDs must already be assigned), keyed like the sync ops by
// the thread's t.App.ID.
func newFutexes(w *task.Workload) []*appFutexes {
	byApp := make(map[int]*appFutexes, len(w.Apps))
	of := func(app int) *appFutexes {
		f := byApp[app]
		if f == nil {
			f = &appFutexes{
				locks:    make(map[int]*flock),
				barriers: make(map[int]*fbarrier),
				queues:   make(map[int]*fqueue),
			}
			byApp[app] = f
		}
		return f
	}
	for _, a := range w.Apps {
		f := of(a.ID)
		f.decl = append(f.decl, a.Queues...)
	}
	out := make([]*appFutexes, w.NumThreads())
	for _, a := range w.Apps {
		for _, t := range a.Threads {
			out[t.ID] = of(t.App.ID)
		}
	}
	return out
}

func (f *appFutexes) lock(id int) *flock {
	l := f.locks[id]
	if l == nil {
		l = &flock{}
		f.locks[id] = l
	}
	return l
}

func (f *appFutexes) barrier(id int) *fbarrier {
	b := f.barriers[id]
	if b == nil {
		b = &fbarrier{}
		f.barriers[id] = b
	}
	return b
}

func (f *appFutexes) queue(id int) *fqueue {
	q := f.queues[id]
	if q == nil {
		// The declared capacity; the last declaration of the ID wins.
		capacity := 1
		for _, qs := range f.decl {
			if qs.ID == id {
				capacity = qs.Capacity
			}
		}
		if capacity < 1 {
			capacity = 1
		}
		q = &fqueue{capacity: capacity}
		f.queues[id] = q
	}
	return q
}

// doLock executes a Lock op for t. It reports whether t blocked.
func (m *Machine) doLock(t *task.Thread, id int) bool {
	l := m.futexes[t.ID].lock(id)
	if l.owner == nil {
		// Uncontested: user-space atomic, no kernel involvement (§4.1).
		l.owner = t
		t.PC++
		return false
	}
	l.waiters = append(l.waiters, t)
	m.blockThread(t)
	return true
}

// doUnlock executes an Unlock op for t, waking the first waiter with direct
// lock handoff and charging t the waiter's full waiting period.
func (m *Machine) doUnlock(t *task.Thread, id int) {
	l := m.futexes[t.ID].lock(id)
	if l.owner != t {
		panic(fmt.Sprintf("kernel: %v unlocks futex %d it does not hold", t, id))
	}
	l.owner = nil
	t.PC++
	if len(l.waiters) > 0 {
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		l.owner = w
		m.wakeThread(w, t)
	}
}

// doBarrier executes a Barrier op. The last arriver releases everyone and is
// blamed for the full accumulated waiting time (it is the thread the others
// were critically waiting on).
func (m *Machine) doBarrier(t *task.Thread, id, parties int) bool {
	if parties <= 1 {
		t.PC++
		return false
	}
	b := m.futexes[t.ID].barrier(id)
	if len(b.arrived)+1 >= parties {
		waiters := b.arrived
		b.arrived = nil
		t.PC++
		for _, w := range waiters {
			m.wakeThread(w, t)
		}
		return false
	}
	b.arrived = append(b.arrived, t)
	m.blockThread(t)
	return true
}

// doPut executes a bounded-queue produce. It reports whether t blocked.
func (m *Machine) doPut(t *task.Thread, id int) bool {
	q := m.futexes[t.ID].queue(id)
	if len(q.getWaiters) > 0 {
		// Direct handoff to a starving consumer; the producer ended its wait.
		w := q.getWaiters[0]
		q.getWaiters = q.getWaiters[1:]
		t.PC++
		m.wakeThread(w, t)
		return false
	}
	if q.items < q.capacity {
		q.items++
		t.PC++
		return false
	}
	q.putWaiters = append(q.putWaiters, t)
	m.blockThread(t)
	return true
}

// doGet executes a bounded-queue consume. It reports whether t blocked.
func (m *Machine) doGet(t *task.Thread, id int) bool {
	q := m.futexes[t.ID].queue(id)
	if len(q.putWaiters) > 0 {
		// A producer was blocked on a full queue: take its item directly.
		w := q.putWaiters[0]
		q.putWaiters = q.putWaiters[1:]
		t.PC++
		m.wakeThread(w, t)
		return false
	}
	if q.items > 0 {
		q.items--
		t.PC++
		return false
	}
	q.getWaiters = append(q.getWaiters, t)
	m.blockThread(t)
	return true
}
