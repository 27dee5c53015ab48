// Package sim is a deterministic discrete-event simulation engine. It stands
// in for gem5's event-driven core: the kernel model, the cores and the
// periodic scheduler machinery all advance by scheduling callbacks on a
// single virtual clock.
package sim

import "fmt"

// Time is simulated time in nanoseconds.
type Time int64

// Convenient durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time with a readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is a scheduled callback. Events are single-shot; cancelling an event
// that already fired is a no-op.
//
// Handle lifetime: events live in an engine-owned slab and the engine
// reissues their slots through a freelist so steady-state scheduling does
// not allocate. A handle returned by At/After is valid until its callback
// fires or it is cancelled; after either, the holder must drop the handle —
// the same slot may be reissued for a later, unrelated scheduling, and a
// stale Cancel would then kill that event.
type Event struct {
	fn       func()
	canceled bool
}

// chunkSize is the number of events in one slab chunk. A chunk is never
// reallocated, so an *Event handle into it stays valid as the slab grows.
const chunkSize = 64

// entry is one slot of the event heap or FIFO. The (at, seq) key is stored
// inline so sifting compares slots without touching the slab; seq breaks
// timestamp ties FIFO, which makes the key unique and the pop order total.
// The event is named by its slab slot, not a pointer, so the queues hold no
// pointers: the GC does not scan them and sifting writes no heap pointers.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// ring is a growable FIFO of entries in push order (a power-of-two ring
// buffer, so it keeps its capacity as it drains and refills).
type ring struct {
	buf  []entry
	head int
	n    int
}

func (r *ring) push(x entry) {
	if r.n == len(r.buf) {
		buf := make([]entry, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = x
	r.n++
}

// pop removes and returns the oldest entry; the ring must be non-empty.
func (r *ring) pop() entry {
	x := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return x
}

// Engine is the event loop. The zero value is not usable; call NewEngine.
//
// Pending events live in two structures. Events scheduled for a later
// instant go into a binary min-heap on (at, seq); events scheduled at Now()
// — most of a big machine's reschedules and preemption checks — are
// appended to a FIFO instead. Step fires whichever of the FIFO head and the
// heap top is smaller by (at, seq), which is the heap-only order exactly:
// the FIFO is sorted (every entry is at Now(), in seq order), and time
// cannot advance while it holds an entry, because its head at Now()
// precedes every heap entry of a later instant.
type Engine struct {
	now     Time
	seq     uint64
	heap    []entry             // binary min-heap on (at, seq) of events after their push instant
	fifo    ring                // events pushed at their own instant, all at now
	slab    []*[chunkSize]Event // event storage; slot i is slab[i/chunkSize][i%chunkSize]
	used    int32               // slots ever issued: the slab's high-water mark
	free    []int32             // fired/collected slots awaiting reuse
	stopped bool
	// Processed counts fired (non-cancelled) events, for tests and stats.
	// A handler that does the work of several events in one may add the
	// extra ones: the kernel's reschedule sweep counts each core it visits
	// after the first. Run budgets by Processed.
	Processed uint64
	// PostStep, when set, runs after every event handler returns — the
	// machine is in a consistent between-events state there. It runs once
	// per fired event, so once per kernel sweep however many cores the
	// sweep visits. Used by validation harnesses (kernel.CheckInvariants);
	// nil in production.
	PostStep func()
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// NextSeq returns the sequence number the next At or After will take.
// Sequence numbers rise by one per scheduled event, so a caller that
// recorded an event's number n sees NextSeq() == n+1 exactly while no
// event has been scheduled since it.
func (e *Engine) NextSeq() uint64 { return e.seq }

// event returns the slab event at slot.
func (e *Engine) event(slot int32) *Event {
	return &e.slab[uint32(slot)/chunkSize][uint32(slot)%chunkSize]
}

// At schedules fn at absolute time t (>= Now) and returns a cancellable
// handle. Scheduling in the past panics: it would silently corrupt
// causality.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if int(e.used) == len(e.slab)*chunkSize {
			e.slab = append(e.slab, new([chunkSize]Event))
		}
		slot = e.used
		e.used++
	}
	ev := e.event(slot)
	ev.fn, ev.canceled = fn, false
	if x := (entry{at: t, seq: e.seq, slot: slot}); t == e.now {
		e.fifo.push(x)
	} else {
		e.push(x)
	}
	e.seq++
	return ev
}

// push inserts x and sifts it up to its place.
func (e *Engine) push(x entry) {
	h := append(e.heap, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	e.heap = h
}

// pop removes and returns the minimum entry; the heap must be non-empty.
func (e *Engine) pop() entry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	x := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = x
	}
	e.heap = h
	return top
}

// After schedules fn d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Cancel deactivates ev. Safe to call on nil, already-cancelled or
// already-fired events.
func (e *Engine) Cancel(ev *Event) {
	if ev != nil {
		ev.canceled = true
	}
}

// Stop makes the current Run call return after the in-flight event.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next pending event. It reports whether an event fired
// (false when the queue is empty). A fired or cancelled slot goes back on
// the freelist with its callback still set: clearing it would cost a write
// barrier per event, and the next At on the slot overwrites it.
func (e *Engine) Step() bool {
	for {
		var x entry
		switch {
		case e.fifo.n > 0 && (len(e.heap) == 0 || e.fifo.buf[e.fifo.head].less(e.heap[0])):
			x = e.fifo.pop()
		case len(e.heap) > 0:
			x = e.pop()
		default:
			return false
		}
		ev := e.event(x.slot)
		if ev.canceled {
			e.free = append(e.free, x.slot)
			continue
		}
		e.now = x.at
		e.Processed++
		ev.fn()
		if e.PostStep != nil {
			e.PostStep()
		}
		e.free = append(e.free, x.slot)
		return true
	}
}

// Run fires events until the queue drains, Stop is called, or Processed
// has grown by the event budget maxEvents (0 means unlimited). It returns
// the growth of Processed, which exceeds maxEvents when the last handler
// added to it past the budget.
func (e *Engine) Run(maxEvents uint64) uint64 {
	e.stopped = false
	start := e.Processed
	for !e.stopped {
		if maxEvents > 0 && e.Processed-start >= maxEvents {
			break
		}
		if !e.Step() {
			break
		}
	}
	return e.Processed - start
}

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return len(e.heap) + e.fifo.n }
