package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"colab/internal/mathx"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(30, func() { got = append(got, 30) })
	e.At(10, func() { got = append(got, 10) })
	e.At(20, func() { got = append(got, 20) })
	e.Run(0)
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(nil) // must not panic
	e.Run(0)
	if fired {
		t.Fatalf("cancelled event fired")
	}
	if e.Processed != 0 {
		t.Fatalf("processed = %d", e.Processed)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.At(10, func() {
		got = append(got, e.Now())
		e.After(5, func() { got = append(got, e.Now()) })
	})
	e.Run(0)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("got %v", got)
	}
}

func TestStopAndBudget(t *testing.T) {
	e := NewEngine()
	count := 0
	var rearm func()
	rearm = func() {
		count++
		if count == 5 {
			e.Stop()
		}
		e.After(1, rearm)
	}
	e.After(1, rearm)
	e.Run(0)
	if count != 5 {
		t.Fatalf("Stop did not stop: %d", count)
	}
	// Budget-bounded run of a self-rearming event.
	e2 := NewEngine()
	n := 0
	var loop func()
	loop = func() { n++; e2.After(1, loop) }
	e2.After(1, loop)
	if fired := e2.Run(7); fired != 7 || n != 7 {
		t.Fatalf("budget run fired %d, handler ran %d", fired, n)
	}
}

// TestRunBudgetsByProcessed runs handlers that count as several events,
// as the kernel's reschedule sweep does: Run's budget is Processed growth,
// it stops at the first event boundary at or past the budget, and it
// returns the growth, overshoot included.
func TestRunBudgetsByProcessed(t *testing.T) {
	e := NewEngine()
	n := 0
	var loop func()
	loop = func() {
		n++
		e.Processed += 2 // each handler counts as three events
		e.After(1, loop)
	}
	e.After(1, loop)
	if fired := e.Run(7); fired != 9 || n != 3 || e.Processed != 9 {
		t.Fatalf("Run(7) returned %d after %d handlers, Processed %d; want 9, 3, 9", fired, n, e.Processed)
	}
	if fired := e.Run(6); fired != 6 || n != 5 || e.Processed != 15 {
		t.Fatalf("Run(6) returned %d after %d handlers, Processed %d; want 6, 5, 15", fired, n, e.Processed)
	}
}

// TestNextSeq checks that NextSeq names the next event scheduled, at the
// same instant or later, and rises by one per event.
func TestNextSeq(t *testing.T) {
	e := NewEngine()
	if e.NextSeq() != 0 {
		t.Fatalf("fresh engine NextSeq = %d", e.NextSeq())
	}
	e.After(0, func() {})
	e.After(5, func() {})
	e.Cancel(e.After(5, func() {}))
	if e.NextSeq() != 3 {
		t.Fatalf("NextSeq after 3 events = %d", e.NextSeq())
	}
	e.Run(0)
	if e.NextSeq() != 3 {
		t.Fatalf("firing events moved NextSeq to %d", e.NextSeq())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Errorf("scheduling in the past must panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)

	defer func() {
		if recover() == nil {
			t.Errorf("negative After must panic")
		}
	}()
	e.After(-1, func() {})
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:                  "5ns",
		3 * Microsecond:    "3.000us",
		2 * Millisecond:    "2.000ms",
		1500 * Millisecond: "1.500s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
	if s := (2 * Second).Seconds(); s != 2 {
		t.Errorf("Seconds = %v", s)
	}
}

// Property: N random events fire exactly once each, in non-decreasing time
// order, and the clock never goes backwards.
func TestRandomScheduleProperty(t *testing.T) {
	check := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		e := NewEngine()
		n := 1 + rng.IntN(200)
		fired := 0
		last := Time(-1)
		ok := true
		for i := 0; i < n; i++ {
			at := Time(rng.IntN(1000))
			e.At(at, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
				fired++
			})
		}
		e.Run(0)
		return ok && fired == n && e.Pending() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// orderHarness drives an Engine next to a reference list of pending
// events sorted by (at, seq). Every handler pops the reference's next live
// entry as it fires, so Step and Run (with budgets and Stop) are checked in
// lockstep. rnd supplies every choice: a seeded RNG for the property test,
// the fuzzer's bytes for FuzzEngineOrder.
type orderHarness struct {
	e         *Engine
	rnd       func(n int) int
	zeroShare int // percent of schedules at Now()
	maxDelay  int // other delays are drawn from 1..maxDelay
	ref       []refEvent
	seq       uint64 // the engine's next sequence number
	got, want []uint64
	inRun     bool
	stopAt    int // len(got) when a handler last called Stop, -1 if none
	ok        bool
}

type refEvent struct {
	at       Time
	seq      uint64
	ev       *Event
	fifo     bool // pushed at its own instant
	canceled bool
}

// chance reports true with probability pct percent. It tests the high end
// of rnd's range, so an exhausted fuzz input (all zeros) never takes it.
func (h *orderHarness) chance(pct int) bool { return h.rnd(100) >= 100-pct }

func (h *orderHarness) delay() Time {
	if h.chance(h.zeroShare) {
		return 0
	}
	return Time(1 + h.rnd(h.maxDelay))
}

func (h *orderHarness) schedule(delay Time, viaAfter bool) {
	id := h.seq
	h.seq++
	fn := func() {
		h.fire(id)
		if h.chance(30) {
			h.schedule(0, false) // at Now(), from inside a handler
		}
		if h.chance(20) {
			h.cancel()
		}
		if h.inRun && h.chance(15) {
			h.e.Stop()
			h.stopAt = len(h.got)
		}
	}
	r := refEvent{at: h.e.Now() + delay, seq: id, fifo: delay == 0}
	if viaAfter {
		r.ev = h.e.After(delay, fn)
	} else {
		r.ev = h.e.At(r.at, fn)
	}
	// seq grows, so the new event goes after every equal timestamp.
	i := sort.Search(len(h.ref), func(i int) bool { return h.ref[i].at > r.at })
	h.ref = append(h.ref, refEvent{})
	copy(h.ref[i+1:], h.ref[i:])
	h.ref[i] = r
}

// fire records handler id firing and pops the reference's next live entry,
// dropping the cancelled ones ahead of it as the engine does.
func (h *orderHarness) fire(id uint64) {
	h.got = append(h.got, id)
	for len(h.ref) > 0 && h.ref[0].canceled {
		h.ref = h.ref[1:]
	}
	if len(h.ref) == 0 || h.e.Now() != h.ref[0].at {
		h.ok = false
		return
	}
	h.want = append(h.want, h.ref[0].seq)
	h.ref = h.ref[1:]
}

// cancel cancels the current minimum, a random live event, or the oldest
// live event pushed at its own instant (the FIFO head's first live entry).
func (h *orderHarness) cancel() {
	var live []int
	for i := range h.ref {
		if !h.ref[i].canceled {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return
	}
	i := live[0]
	switch h.rnd(3) {
	case 1:
		i = live[h.rnd(len(live))]
	case 2:
		for _, j := range live {
			if h.ref[j].fifo {
				i = j
				break
			}
		}
	}
	h.ref[i].canceled = true
	h.e.Cancel(h.ref[i].ev)
}

// drained clears the reference once the engine has emptied itself: every
// remaining entry must be a cancelled one.
func (h *orderHarness) drained() {
	for _, r := range h.ref {
		if !r.canceled {
			h.ok = false
		}
	}
	h.ref = h.ref[:0]
}

func (h *orderHarness) step() {
	if !h.e.Step() {
		h.drained()
	}
}

// run calls Run(max) and checks why it returned: the budget, a Stop from
// its last handler, or an empty queue.
func (h *orderHarness) run(max uint64, stops bool) {
	before := len(h.got)
	h.inRun, h.stopAt = stops, -1
	fired := h.e.Run(max)
	h.inRun = false
	if int(fired) != len(h.got)-before {
		h.ok = false
	}
	switch {
	case max > 0 && fired == max:
	case h.stopAt >= 0:
		if h.stopAt != len(h.got) {
			h.ok = false // events fired after Stop
		}
	default:
		h.drained()
	}
}

// op performs one random operation and checks Pending against the
// reference.
func (h *orderHarness) op() {
	switch k := h.rnd(20); {
	case k < 6:
		h.schedule(h.delay(), false)
	case k < 10:
		h.schedule(h.delay(), true)
	case k < 12:
		h.cancel()
	case k < 18:
		h.step()
	case k < 19:
		h.run(uint64(1+h.rnd(5)), false)
	default:
		h.run(0, true)
	}
	if h.e.Pending() != len(h.ref) {
		h.ok = false
	}
}

// finish drains the engine and compares the firing order with the
// reference's.
func (h *orderHarness) finish() bool {
	for h.ok && h.e.Pending() > 0 {
		h.step()
		if h.e.Pending() != len(h.ref) {
			h.ok = false
		}
	}
	if !h.ok || h.e.Step() || len(h.got) != len(h.want) {
		return false
	}
	for i := range h.want {
		if h.got[i] != h.want[i] {
			return false
		}
	}
	return true
}

// Property: any interleaving of At, After, Cancel, Step and Run (with
// budgets and Stop expiring mid-instant) fires events in the order of a
// sorted (at, seq) reference, including cancelling the current minimum and
// the FIFO head and scheduling at Now() from inside a handler. The
// zero-delay-heavy mix has the kernel's shape: most pushes at Now(), into
// instants the heap already holds events for.
func TestInterleavingsMatchSortedReference(t *testing.T) {
	mixes := []struct {
		name                string
		zeroShare, maxDelay int
	}{
		{"spread", 3, 39},
		{"zero-heavy", 85, 4},
	}
	for _, mix := range mixes {
		check := func(seed uint64) bool {
			rng := mathx.NewRNG(seed)
			h := &orderHarness{e: NewEngine(), rnd: rng.IntN, zeroShare: mix.zeroShare, maxDelay: mix.maxDelay, ok: true}
			for op := 0; op < 500 && h.ok; op++ {
				h.op()
			}
			return h.finish()
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", mix.name, err)
		}
	}
}

// FuzzEngineOrder drives the same reference comparison from the fuzzer's
// bytes: each byte picks an operation or one of its choices.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 3, 3})
	f.Add([]byte{7, 99, 1, 5, 0, 99, 12, 2, 15, 19, 99, 99, 99, 16, 19})
	f.Add([]byte("zero-delay-heavy mixes keep the fifo busy while the heap holds the same instant"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rnd := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		h := &orderHarness{e: NewEngine(), rnd: rnd, zeroShare: 60, maxDelay: 4, ok: true}
		for len(data) > 0 && h.ok {
			h.op()
		}
		if !h.finish() {
			t.Fatalf("engine order diverges from the sorted reference: got %v, want %v", h.got, h.want)
		}
	})
}

// BenchmarkEngine measures one push/pop cycle of the event heap at a
// steady 512 pending events, the order of the deepest queues a 256-core
// simulation keeps.
func BenchmarkEngine(b *testing.B) {
	const depth = 512
	e := NewEngine()
	rng := mathx.NewRNG(1)
	var fire func()
	fire = func() { e.After(Time(1+rng.IntN(1000)), fire) }
	for i := 0; i < depth; i++ {
		e.After(Time(1+rng.IntN(1000)), fire)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// zeroDelayMix loads e with the kernel's event shape: depth timers spread
// over the next thousand nanoseconds, each of which, when it fires, pushes
// nine zero-delay events (reschedules, preemption checks) and re-arms
// itself, so nine of every ten pushes land at Now() while the heap holds
// about depth entries.
func zeroDelayMix(e *Engine, depth int) {
	rng := mathx.NewRNG(1)
	kick := func() {}
	var timer func()
	timer = func() {
		for i := 0; i < 9; i++ {
			e.After(0, kick)
		}
		e.After(Time(1+rng.IntN(1000)), timer)
	}
	for i := 0; i < depth; i++ {
		e.After(Time(1+rng.IntN(1000)), timer)
	}
}

// Once warm, zero-delay rescheduling allocates nothing: the FIFO keeps its
// buffer as it drains and refills, and events come from the freelist.
func TestZeroDelaySteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	zeroDelayMix(e, 256)
	for i := 0; i < 10000; i++ {
		e.Step()
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			if !e.Step() {
				t.Fatal("engine drained")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("zero-delay steady state allocates: %.2f allocs per 100 events, want 0", avg)
	}
}

// BenchmarkEngineZeroDelay measures one Step at the shape a 256-core
// simulation drives the engine with: about 256 pending timers and nine of
// every ten pushes at Now().
func BenchmarkEngineZeroDelay(b *testing.B) {
	e := NewEngine()
	zeroDelayMix(e, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// Handles stay valid while the slab grows: callbacks schedule more events
// than one slab chunk holds, keeping every earlier handle, and cancelling
// a spread of them through those handles skips exactly the cancelled ones.
func TestHandlesSurviveSlabGrowth(t *testing.T) {
	const n = 3*chunkSize + 5
	e := NewEngine()
	var handles []*Event
	fired := make([]bool, n)
	var spawn func()
	spawn = func() {
		// Each callback schedules the next event from inside the loop, so
		// the slab grows while earlier handles are held and still pending.
		i := len(handles)
		handles = append(handles, e.After(Time(n-i), func() { fired[i] = true }))
		if len(handles) < n {
			e.After(0, spawn)
		}
	}
	e.After(0, spawn)
	for len(handles) < n {
		if !e.Step() {
			t.Fatal("engine drained while spawning")
		}
	}
	if len(e.slab) < 2 {
		t.Fatalf("%d events fit in %d slab chunk(s); the test must outgrow one", n, len(e.slab))
	}
	cancelled := make(map[int]bool)
	for i := 0; i < n; i += 7 {
		e.Cancel(handles[i])
		cancelled[i] = true
	}
	e.Run(0)
	for i := range fired {
		if fired[i] == cancelled[i] {
			t.Errorf("event %d: fired %v, cancelled %v", i, fired[i], cancelled[i])
		}
	}
	if want := uint64(2*n - len(cancelled)); e.Processed != want {
		t.Fatalf("processed %d events, want %d", e.Processed, want)
	}
}
