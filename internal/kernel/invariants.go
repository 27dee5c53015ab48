package kernel

import (
	"fmt"

	"colab/internal/cpu"
	"colab/internal/task"
)

// CheckInvariants inspects live machine state and returns a description of
// every violated structural invariant (empty when consistent). Tests call
// it from trace callbacks to validate the simulation continuously; it is
// never called on the hot path.
//
// Invariants:
//  1. A core's Current thread is Running and believes it is on that core.
//  2. No two cores run the same thread.
//  3. Every Running thread is some core's Current.
//  4. The live-thread count equals the number of non-Done threads.
//  5. Done threads have a finish time and no residual work.
//  6. Accounting totals are non-negative and blocked threads have a wait
//     start no later than now.
//  7. The occupancy index holds exactly the cores with a Current thread.
//  8. Under a pipeline scheduler, the run queues' non-empty index holds
//     exactly the non-empty queues, Total is the sum of their lengths,
//     and the by-ID index places every queued thread, and only those, on
//     its queue.
//  9. Every thread's prepared accrual state (counter profile and per-tier
//     speedups) equals the state derived fresh from its current Profile.
//  10. The resched-pending index holds only idle cores: only schedule(c)
//     dispatches onto c, and the sweep takes c out of the index before it
//     calls schedule(c). The work-conservation walk relies on this to skip
//     pending cores as idle ones already kicked. The sweep ring holds
//     exactly the pending cores, each once: a core joins it when its bit
//     is set and leaves it when the bit is cleared, so the ring of one
//     slot per core cannot overflow.
func (m *Machine) CheckInvariants() []string {
	var violations []string
	seen := make(map[*task.Thread]int)
	for _, c := range m.cores {
		t := c.Current
		if m.busy.has(c.ID) != (t != nil) {
			violations = append(violations, fmt.Sprintf("cpu%d occupancy bit %v, current %v", c.ID, m.busy.has(c.ID), t))
		}
		if t != nil && m.pending.has(c.ID) {
			violations = append(violations, fmt.Sprintf("cpu%d has a resched pending while running %v", c.ID, t))
		}
		if t == nil {
			continue
		}
		if t.State != task.Running {
			violations = append(violations, fmt.Sprintf("cpu%d current %v in state %v", c.ID, t, t.State))
		}
		if t.CoreID != c.ID {
			violations = append(violations, fmt.Sprintf("cpu%d current %v claims core %d", c.ID, t, t.CoreID))
		}
		if prev, dup := seen[t]; dup {
			violations = append(violations, fmt.Sprintf("%v running on both cpu%d and cpu%d", t, prev, c.ID))
		}
		seen[t] = c.ID
	}
	violations = append(violations, m.checkSweepRing()...)
	alive := 0
	now := m.eng.Now()
	for _, t := range m.threads {
		violations = append(violations, m.checkPrepared(t)...)
		switch t.State {
		case task.Done:
			if t.FinishTime <= 0 && now > 0 {
				violations = append(violations, fmt.Sprintf("%v done without finish time", t))
			}
			if t.Remaining > workEpsilon {
				violations = append(violations, fmt.Sprintf("%v done with %v work left", t, t.Remaining))
			}
			continue
		case task.Running:
			if _, ok := seen[t]; !ok {
				violations = append(violations, fmt.Sprintf("%v running but on no core", t))
			}
		case task.Blocked:
			if t.WaitStart > now {
				violations = append(violations, fmt.Sprintf("%v blocked with future wait start %v", t, t.WaitStart))
			}
		}
		alive++
		if t.SumExec < 0 || t.BlockedTime < 0 || t.BlockBlame < 0 || t.ReadyTime < 0 {
			violations = append(violations, fmt.Sprintf("%v has negative accounting", t))
		}
	}
	if alive != m.live {
		violations = append(violations, fmt.Sprintf("live count %d, but %d threads not done", m.live, alive))
	}
	if m.queues != nil {
		violations = append(violations, m.queues.checkIndex()...)
	}
	return violations
}

// checkSweepRing checks invariant 10's ring: every entry is a pending,
// idle core, no core sits in it twice, and every pending core sits in it.
func (m *Machine) checkSweepRing() []string {
	var violations []string
	queued := newCoreSet(len(m.cores))
	for i := 0; i < m.sweepQ.n; i++ {
		id := m.sweepQ.at(i)
		if id < 0 {
			id = ^id
		}
		switch c := m.cores[id]; {
		case queued.has(c.ID):
			violations = append(violations, fmt.Sprintf("cpu%d queued twice on the sweep ring", c.ID))
		case !m.pending.has(c.ID):
			violations = append(violations, fmt.Sprintf("cpu%d on the sweep ring without a resched pending", c.ID))
		case c.Current != nil:
			violations = append(violations, fmt.Sprintf("cpu%d on the sweep ring while running %v", c.ID, c.Current))
		}
		queued.add(int(id))
	}
	for id := next(m.pending, m.pending, 0, m.allSet, 0); id >= 0; id = next(m.pending, m.pending, 0, m.allSet, id+1) {
		if !queued.has(id) {
			violations = append(violations, fmt.Sprintf("cpu%d has a resched pending but is not on the sweep ring", id))
		}
	}
	return violations
}

// checkPrepared compares t's prepared accrual state with a fresh derivation
// from t.Profile; a mismatch means a profile change skipped prepare.
func (m *Machine) checkPrepared(t *task.Thread) []string {
	var violations []string
	if m.ctrProf[t.ID] != cpu.PrepareCounters(t.Profile) {
		violations = append(violations, fmt.Sprintf("%v counter profile is stale", t))
	}
	for k, tier := range m.tiers {
		if got, want := m.speedup[t.ID*len(m.tiers)+k], t.Profile.SpeedupOn(tier); got != want {
			violations = append(violations, fmt.Sprintf("%v prepared speedup on %s is %v, profile gives %v", t, tier.Name, got, want))
		}
	}
	return violations
}

// checkIndex verifies the non-empty index, Total and the by-ID index
// against the queues.
func (q *RunQueues) checkIndex() []string {
	var violations []string
	total := 0
	for i := range q.qs {
		total += q.Len(i)
		if q.nonEmpty.has(i) != (q.Len(i) > 0) {
			violations = append(violations, fmt.Sprintf("queue %d non-empty bit %v, length %d", i, q.nonEmpty.has(i), q.Len(i)))
		}
		for _, e := range q.qs[i] {
			if at := q.QueuedOn(e.t); at != i {
				violations = append(violations, fmt.Sprintf("%v queued on cpu%d, indexed on %d", e.t, i, at))
			}
		}
	}
	if q.Total() != total {
		violations = append(violations, fmt.Sprintf("queue total %d, lengths sum to %d", q.Total(), total))
	}
	indexed := 0
	for _, at := range q.where {
		if at != 0 {
			indexed++
		}
	}
	if indexed != total {
		violations = append(violations, fmt.Sprintf("%d threads indexed as queued, lengths sum to %d", indexed, total))
	}
	return violations
}
