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

// Property: any interleaving of At, After, Cancel and Step fires events in
// the order of a sorted (at, seq) reference, including cancelling the
// current minimum and scheduling at Now() from inside a handler.
func TestInterleavingsMatchSortedReference(t *testing.T) {
	type refEvent struct {
		at       Time
		seq      uint64
		ev       *Event
		canceled bool
	}
	check := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		e := NewEngine()
		var ref []refEvent // pending events, sorted by (at, seq)
		var seq uint64     // the engine's next sequence number
		var got, want []uint64
		cancel := func() {
			var live []int
			for i := range ref {
				if !ref[i].canceled {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				return
			}
			i := live[0] // the current minimum
			if rng.Float64() < 0.5 {
				i = live[rng.IntN(len(live))]
			}
			ref[i].canceled = true
			e.Cancel(ref[i].ev)
		}
		var schedule func(delay Time, viaAfter bool)
		schedule = func(delay Time, viaAfter bool) {
			id := seq
			seq++
			fn := func() {
				got = append(got, id)
				if rng.Float64() < 0.3 {
					schedule(0, false) // at Now(), from inside a handler
				}
				if rng.Float64() < 0.2 {
					cancel()
				}
			}
			r := refEvent{at: e.Now() + delay, seq: id}
			if viaAfter {
				r.ev = e.After(delay, fn)
			} else {
				r.ev = e.At(r.at, fn)
			}
			// seq grows, so the new event goes after every equal timestamp.
			i := sort.Search(len(ref), func(i int) bool { return ref[i].at > r.at })
			ref = append(ref, refEvent{})
			copy(ref[i+1:], ref[i:])
			ref[i] = r
		}
		step := func() bool {
			for len(ref) > 0 && ref[0].canceled {
				ref = ref[1:]
			}
			fires := len(ref) > 0
			if fires {
				want = append(want, ref[0].seq)
				ref = ref[1:]
			}
			return e.Step() == fires
		}
		for op := 0; op < 500; op++ {
			switch k := rng.IntN(10); {
			case k < 3:
				schedule(Time(rng.IntN(40)), false)
			case k < 5:
				schedule(Time(rng.IntN(40)), true)
			case k < 6:
				cancel()
			default:
				if !step() {
					return false
				}
			}
			if e.Pending() != len(ref) {
				return false
			}
		}
		for e.Pending() > 0 {
			if !step() {
				return false
			}
		}
		if e.Step() || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
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
