package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"colab/internal/kernel"
	"colab/internal/sim"
	"colab/internal/task"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public seam. Spans of one cell or request share a parent; counts and
// nested timings measured inside the span travel as attributes.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Tag    string             `json:"tag,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pass nil and pay one branch per seam.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span in progress.
type open struct {
	tr *tracer
	s  span
}

func (tr *tracer) start(name string, parent int64) *open {
	if tr == nil {
		return nil
	}
	return &open{tr: tr, s: span{ID: tr.next.Add(1), Parent: parent, Name: name, Start: int64(time.Since(tr.t0))}}
}

func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) attr(k string, v float64) {
	if o == nil {
		return
	}
	if o.s.Attrs == nil {
		o.s.Attrs = make(map[string]float64)
	}
	o.s.Attrs[k] = v
}

func (o *open) tag(t string) {
	if o != nil {
		o.s.Tag = t
	}
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
}

func (tr *tracer) all() []span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// writeSpans writes the spans as NDJSON under the work directory and
// returns the file's path.
func writeSpans(e *env, workload string, spans []span) (string, error) {
	path := filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.ndjson", workload, e.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// schedStats accumulates the time one simulation spends inside its
// scheduler and speedup predictor. One simulation runs on one goroutine,
// so the counters need no synchronisation.
type schedStats struct {
	enqueueCalls, pickCalls, oppCalls, otherCalls int
	enqueue, pick, opp, other                     time.Duration
	predictCalls                                  int
	predict, predictOutside                       time.Duration
	inSched                                       bool
}

func (s *schedStats) total() time.Duration { return s.enqueue + s.pick + s.opp + s.other }

// timedSched wraps a kernel.Scheduler and times every call the kernel
// makes into it.
type timedSched struct {
	inner kernel.Scheduler
	st    *schedStats
}

// timedGovernor is timedSched for policies that also implement
// kernel.DVFSGovernor; the kernel type-asserts the hook, so the wrapper
// must offer SelectOPP exactly when the inner policy does.
type timedGovernor struct {
	timedSched
	gov kernel.DVFSGovernor
}

// wrapScheduler returns s wrapped in timing code that reports into st.
func wrapScheduler(s kernel.Scheduler, st *schedStats) kernel.Scheduler {
	t := timedSched{inner: s, st: st}
	if g, ok := s.(kernel.DVFSGovernor); ok {
		return &timedGovernor{timedSched: t, gov: g}
	}
	return &t
}

func (t *timedSched) enter() time.Time {
	t.st.inSched = true
	return time.Now()
}

func (t *timedSched) leave(t0 time.Time, acc *time.Duration, calls *int) {
	*acc += time.Since(t0)
	*calls++
	t.st.inSched = false
}

func (t *timedSched) Name() string { return t.inner.Name() }

func (t *timedSched) Start(m *kernel.Machine) {
	t0 := t.enter()
	t.inner.Start(m)
	t.leave(t0, &t.st.other, &t.st.otherCalls)
}

func (t *timedSched) Admit(th *task.Thread) {
	t0 := t.enter()
	t.inner.Admit(th)
	t.leave(t0, &t.st.other, &t.st.otherCalls)
}

func (t *timedSched) Enqueue(th *task.Thread, wakeup bool) int {
	t0 := t.enter()
	c := t.inner.Enqueue(th, wakeup)
	t.leave(t0, &t.st.enqueue, &t.st.enqueueCalls)
	return c
}

func (t *timedSched) PickNext(c *kernel.Core) *task.Thread {
	t0 := t.enter()
	th := t.inner.PickNext(c)
	t.leave(t0, &t.st.pick, &t.st.pickCalls)
	return th
}

func (t *timedSched) TimeSlice(c *kernel.Core, th *task.Thread) sim.Time {
	t0 := t.enter()
	d := t.inner.TimeSlice(c, th)
	t.leave(t0, &t.st.other, &t.st.otherCalls)
	return d
}

func (t *timedSched) VRuntimeScale(c *kernel.Core, th *task.Thread) float64 {
	t0 := t.enter()
	v := t.inner.VRuntimeScale(c, th)
	t.leave(t0, &t.st.other, &t.st.otherCalls)
	return v
}

func (t *timedSched) WakeupPreempt(c *kernel.Core, th *task.Thread) bool {
	t0 := t.enter()
	v := t.inner.WakeupPreempt(c, th)
	t.leave(t0, &t.st.other, &t.st.otherCalls)
	return v
}

func (t *timedSched) ThreadDone(th *task.Thread) {
	t0 := t.enter()
	t.inner.ThreadDone(th)
	t.leave(t0, &t.st.other, &t.st.otherCalls)
}

func (t *timedGovernor) SelectOPP(c *kernel.Core, th *task.Thread) int {
	t0 := t.enter()
	v := t.gov.SelectOPP(c, th)
	t.leave(t0, &t.st.opp, &t.st.oppCalls)
	return v
}

// wrapPredictor times a speedup predictor, attributing the time to the
// simulation whose stats are current on the calling goroutine.
func wrapPredictor(f func(*task.Thread) float64, st *schedStats) func(*task.Thread) float64 {
	return func(th *task.Thread) float64 {
		t0 := time.Now()
		v := f(th)
		d := time.Since(t0)
		st.predict += d
		st.predictCalls++
		if !st.inSched {
			st.predictOutside += d
		}
		return v
	}
}

// recordSched copies a simulation's scheduler and predictor timings onto
// its run span.
func recordSched(o *open, st *schedStats) {
	o.attr("enqueue_calls", float64(st.enqueueCalls))
	o.attr("enqueue_ms", ms(st.enqueue))
	o.attr("picknext_calls", float64(st.pickCalls))
	o.attr("picknext_ms", ms(st.pick))
	o.attr("selectopp_calls", float64(st.oppCalls))
	o.attr("selectopp_ms", ms(st.opp))
	o.attr("other_calls", float64(st.otherCalls))
	o.attr("other_ms", ms(st.other))
	o.attr("sched_ms", ms(st.total()))
	o.attr("predict_calls", float64(st.predictCalls))
	o.attr("predict_ms", ms(st.predict))
	o.attr("predict_outside_ms", ms(st.predictOutside))
}

// countingTransport wraps the fleet coordinator's HTTP transport. It
// counts dispatches and wire bytes (request and response bodies) and,
// with a tracer, records one span per dispatch from send until the
// response body is closed, with the time to first byte as an attribute.
type countingTransport struct {
	base     http.RoundTripper
	tr       *tracer
	parent   atomic.Int64 // span of the submission in flight
	requests atomic.Int64
	bytes    atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.requests.Add(1)
	o := c.tr.start("fleet.dispatch", c.parent.Load())
	t0 := time.Now()
	if req.ContentLength > 0 {
		c.bytes.Add(req.ContentLength)
	}
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		o.end()
		return nil, err
	}
	o.attr("ttfb_ms", ms(time.Since(t0)))
	resp.Body = &countingBody{rc: resp.Body, n: &c.bytes, o: o}
	return resp, nil
}

type countingBody struct {
	rc   io.ReadCloser
	n    *atomic.Int64
	o    *open
	once sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.rc.Close()
	b.once.Do(b.o.end)
	return err
}
