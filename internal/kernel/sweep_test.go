package kernel

import (
	"slices"
	"strings"
	"testing"
)

// TestSweepRing admits the 128-core spin workload, whose time-zero kicks
// queue every core on one sweep event, and checks that the sweep counts
// each core it visits as one event. Corrupting the ring must trip
// invariant 10.
func TestSweepRing(t *testing.T) {
	m := bigMachineSpin(t)
	m.start()
	n := len(m.cores)
	if m.sweepQ.n != n || m.eng.Pending() != 1 {
		t.Fatalf("after admission: %d cores on the sweep ring and %d events queued, want %d and 1", m.sweepQ.n, m.eng.Pending(), n)
	}
	if v := m.CheckInvariants(); len(v) > 0 {
		t.Fatalf("after admission: %v", v)
	}

	// Each corruption is undone before the next.
	expect := func(what, want string) {
		t.Helper()
		v := m.CheckInvariants()
		if !slices.ContainsFunc(v, func(s string) bool { return strings.Contains(s, want) }) {
			t.Errorf("%s: violations %q, want one containing %q", what, v, want)
		}
	}
	m.pending.remove(5)
	expect("core on the ring without its pending bit", "cpu5 on the sweep ring without a resched pending")
	m.pending.add(5)
	second := m.sweepQ.buf[1]
	m.sweepQ.buf[1] = m.sweepQ.buf[2]
	expect("core on the ring twice", "queued twice")
	expect("pending core off the ring", "not on the sweep ring")
	m.sweepQ.buf[1] = second
	m.cores[7].Current = m.threads[0]
	expect("running core on the ring", "cpu7 on the sweep ring while running")
	m.cores[7].Current = nil

	if !m.eng.Step() || m.eng.Processed != uint64(n) {
		t.Fatalf("one sweep over %d cores counted %d events, want %d", n, m.eng.Processed, n)
	}
	if v := m.CheckInvariants(); len(v) > 0 {
		t.Fatalf("after the sweep: %v", v)
	}
}
