package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/metrics"
	"colab/internal/workload"
)

// The serve-sweeps request universe. Hot scenarios are in nearly every
// request and stay cached; a quarter of the requests swap one scenario
// for a cold one, and the cold cells do not all fit in the cache, so they
// keep being evicted and simulated again.
var (
	serveHot  = []string{"Sync-1", "NSync-1", "Comm-1", "datacenter-day"}
	serveCold = []string{"Rand-1", "Comm-3", "batch-backfill", "interactive-burst"}
	// servePolicies holds five spellings of four policies: the two
	// spellings of the WASH-labelled pipeline share one canonical CellKey.
	servePolicies = []string{"linux", "wash", "colab", "wash.labeler", "linux.selector+wash.labeler"}
	// serveCanonical is one spelling per distinct policy, for the
	// reference computation.
	serveCanonical = []string{"linux", "wash", "colab", "wash.labeler"}
)

const (
	// serveCacheLimit is below the 256 distinct cells the stream touches
	// (8 scenarios x 4 policies x 4 machines x 2 seeds) but above the 128
	// hot cells.
	serveCacheLimit = 192
	serveClients    = 2
	serveColdShare  = 0.25
)

// serveRequest is one sweep request.
type serveRequest struct {
	workloads []string
	policies  []string
	machine   string
	seeds     []uint64
}

func (q serveRequest) query() string {
	v := url.Values{}
	v.Set("workload", strings.Join(q.workloads, ","))
	v.Set("policy", strings.Join(q.policies, ","))
	v.Set("machine", q.machine)
	s := make([]string, len(q.seeds))
	for i, x := range q.seeds {
		s[i] = strconv.FormatUint(x, 10)
	}
	v.Set("seed", strings.Join(s, ","))
	v.Set("workers", "1")
	return v.Encode()
}

func (q serveRequest) cells() int {
	return len(q.workloads) * len(q.policies) * len(q.seeds)
}

// serveSeeds is the seed pool the stream draws from.
func serveSeeds(seed uint64) []uint64 { return []uint64{seed, seed + 1} }

// pick returns n distinct elements of pool in pool order.
func pick(rng *rand.Rand, pool []string, n int) []string {
	idx := rng.Perm(len(pool))[:n]
	var out []string
	for i := range pool {
		for _, j := range idx {
			if i == j {
				out = append(out, pool[i])
			}
		}
	}
	return out
}

// serveRequestAt returns request i of the stream for seed: a pure
// function of (seed, i), so the traced pass can replay the untraced one.
func serveRequestAt(seed uint64, i int) serveRequest {
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(i)))
	machines := cpu.EvaluatedConfigs()
	q := serveRequest{machine: machines[rng.Intn(len(machines))].Name}
	q.workloads = pick(rng, serveHot, 1+rng.Intn(3))
	if rng.Float64() < serveColdShare {
		q.workloads[rng.Intn(len(q.workloads))] = serveCold[rng.Intn(len(serveCold))]
	}
	q.policies = pick(rng, servePolicies, 1+rng.Intn(3))
	seeds := serveSeeds(seed)
	if rng.Float64() < 0.3 {
		q.seeds = seeds
	} else {
		q.seeds = []uint64{seeds[rng.Intn(len(seeds))]}
	}
	return q
}

// serveWarmup requests every hot cell once, so the measured stream starts
// from a warm cache.
func serveWarmup(seed uint64) []serveRequest {
	var out []serveRequest
	for _, cfg := range cpu.EvaluatedConfigs() {
		out = append(out, serveRequest{workloads: serveHot, policies: serveCanonical, machine: cfg.Name, seeds: serveSeeds(seed)})
	}
	return out
}

// serveChild is one colab-serve process.
type serveChild struct {
	cmd      *exec.Cmd
	base     string
	done     chan error
	stopOnce sync.Once
	stopErr  error
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServe starts colab-serve and waits until /healthz answers.
func startServe(ctx context.Context, e *env) (*serveChild, error) {
	if e.serveBin == "" {
		return nil, errors.New("serve-sweeps needs -serve-bin (run through run.sh)")
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(e.serveBin, "-addr", addr, "-max-concurrent", strconv.Itoa(serveClients),
		"-cache-limit", strconv.Itoa(serveCacheLimit), "-drain-timeout", "10s")
	cmd.Stderr = io.Discard
	// The child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &serveChild{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { c.done <- cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := client.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		select {
		case err := <-c.done:
			c.done <- err
			return nil, fmt.Errorf("colab-serve exited before it was ready: %v", err)
		case <-ctx.Done():
			c.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, errors.New("colab-serve not ready after 20s")
		}
	}
}

// stop shuts the child down gracefully, killing it if it does not exit in
// time, and waits for it. Later calls return the first call's result.
func (c *serveChild) stop() error {
	c.stopOnce.Do(func() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case c.stopErr = <-c.done:
		case <-time.After(15 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.done
			c.stopErr = errors.New("colab-serve did not drain within 15s and was killed")
		}
	})
	return c.stopErr
}

// serveStats is the part of colab-serve's /stats the benchmark reads.
type serveStats struct {
	Requests uint64                `json:"requests"`
	Rejected uint64                `json:"rejected"`
	Cache    experiment.CacheStats `json:"cache"`
}

func (c *serveChild) stats() (serveStats, error) {
	var s serveStats
	resp, err := http.Get(c.base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// serveLine is one NDJSON line of a /run stream.
type serveLine struct {
	HANTT   float64 `json:"h_antt"`
	HSTP    float64 `json:"h_stp"`
	CellKey string  `json:"cell_key"`
	Error   string  `json:"error"`
}

// serveResult is the outcome of one request.
type serveResult struct {
	index      int
	status     int
	err        error
	sent, done time.Time
	firstCell  time.Duration
	bytes      int
	lines      []serveLine
}

// do sends one request and reads its stream to the last byte.
func (c *serveChild) do(ctx context.Context, client *http.Client, q serveRequest, i int, tr *tracer) serveResult {
	res := serveResult{index: i}
	o := tr.start("serve.request", 0)
	defer o.end()
	// Traced requests also time the scenario grammar the server parses
	// them with, client side.
	for _, w := range q.workloads {
		if tr == nil {
			break
		}
		po := tr.start("workload.parse", o.id())
		_, err := workload.ResolveSpec(w)
		po.end()
		if err != nil {
			res.err = err
			return res
		}
	}
	t0 := time.Now()
	res.sent = t0
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/run?"+q.query(), nil)
	if err != nil {
		res.err = err
		return res
	}
	resp, err := client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.status = resp.StatusCode
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if len(res.lines) == 0 {
			res.firstCell = time.Since(t0)
		}
		res.bytes += len(sc.Bytes()) + 1
		var l serveLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			res.err = fmt.Errorf("malformed line %q", sc.Bytes())
			return res
		}
		res.lines = append(res.lines, l)
	}
	res.done = time.Now()
	if err := sc.Err(); err != nil {
		res.err = err
	}
	o.attr("first_cell_ms", ms(res.firstCell))
	o.attr("bytes", float64(res.bytes))
	o.attr("cells", float64(len(res.lines)))
	return res
}

// serveStream runs requests first, first+1, ... on serveClients closed-loop
// connections until stop reports true, and returns the results in index
// order.
func serveStream(ctx context.Context, c *serveChild, seed uint64, first int, stop func(next int) bool, tr *tracer) []serveResult {
	var (
		mu   sync.Mutex
		out  []serveResult
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(int64(first))
	for g := 0; g < serveClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if stop(i) || ctx.Err() != nil {
					return
				}
				r := c.do(ctx, client, serveRequestAt(seed, i), i, tr)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out
}

// warm sends the warm-up requests on one connection.
func (c *serveChild) warm(ctx context.Context, seed uint64) []serveResult {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var out []serveResult
	for i, q := range serveWarmup(seed) {
		out = append(out, c.do(ctx, client, q, -1-i, nil))
	}
	return out
}

// serveUniverse returns every cell the stream can touch.
func serveUniverse(seed uint64) ([]workload.Spec, []cell, error) {
	var specs []workload.Spec
	for _, n := range append(append([]string(nil), serveHot...), serveCold...) {
		s, err := workload.ResolveSpec(n)
		if err != nil {
			return nil, nil, err
		}
		specs = append(specs, s)
	}
	var cells []cell
	for _, sd := range serveSeeds(seed) {
		for _, s := range specs {
			for _, cfg := range cpu.EvaluatedConfigs() {
				for _, p := range serveCanonical {
					cells = append(cells, cell{spec: s, cfg: cfg, policy: p, seed: sd})
				}
			}
		}
	}
	return specs, cells, nil
}

// serveReference scores every cell of the request universe through a
// local experiment.Batch, and counts each cell's simulated events, outside
// the measured window.
func serveReference(ctx context.Context, seed uint64) (map[string]metrics.MixScore, map[string]uint64, error) {
	specs, cells, err := serveUniverse(seed)
	if err != nil {
		return nil, nil, err
	}
	ref, err := batchReference(ctx, specs, cpu.EvaluatedConfigs(), serveCanonical, serveSeeds(seed))
	if err != nil {
		return nil, nil, err
	}
	cr, err := newCellRunner(nil)
	if err != nil {
		return nil, nil, err
	}
	events, err := cr.mixEvents(ctx, cells)
	return ref, events, err
}

// verifyServe checks every request: a 200, no in-band error, the expected
// number of cells, and every cell equal to the reference for its CellKey.
func verifyServe(rep *report, seed uint64, rs []serveResult, ref map[string]metrics.MixScore) {
	rep.attempted += len(rs)
	for _, r := range rs {
		var q serveRequest
		if r.index >= 0 {
			q = serveRequestAt(seed, r.index)
		} else {
			q = serveWarmup(seed)[-1-r.index]
		}
		switch {
		case r.err != nil:
			rep.fail(1, "request %d: %v", r.index, r.err)
			continue
		case r.status != http.StatusOK:
			rep.fail(1, "request %d: status %d", r.index, r.status)
			continue
		case len(r.lines) != q.cells():
			rep.fail(1, "request %d: %d cells, want %d", r.index, len(r.lines), q.cells())
			continue
		}
		for _, l := range r.lines {
			want, ok := ref[l.CellKey]
			if l.Error != "" || !ok || !sameScore(want, metrics.MixScore{HANTT: l.HANTT, HSTP: l.HSTP}) {
				rep.fail(1, "request %d: cell %s = (%v, %v) error %q, reference %v (known %v)", r.index, l.CellKey, l.HANTT, l.HSTP, l.Error, want, ok)
				break
			}
		}
	}
}

// serveSetup is one repetition of the service's one-time cost: start the
// child, wait for its listener, and send the first request, which trains
// the speedup models inside the child (colab-dvfs needs both the standard
// and the tri-gear model).
func serveSetup(ctx context.Context, e *env) (*serveChild, error) {
	c, err := startServe(ctx, e)
	if err != nil {
		return nil, err
	}
	q := serveRequest{workloads: []string{"Sync-1"}, policies: []string{"colab-dvfs"}, machine: "2B2S", seeds: []uint64{e.seed}}
	r := c.do(ctx, &http.Client{}, q, 0, nil)
	if r.err != nil || r.status != http.StatusOK || len(r.lines) != 1 || r.lines[0].Error != "" {
		c.stop()
		return nil, fmt.Errorf("first request: status %d, %d lines, %v", r.status, len(r.lines), r.err)
	}
	return c, nil
}

func runServe(ctx context.Context, e *env) (*report, error) {
	rep := &report{}
	var child *serveChild
	setupS, _, err := repeatSetup(e, func(int) (time.Duration, error) {
		if child != nil {
			if err := child.stop(); err != nil {
				return 0, err
			}
		}
		var err error
		child, err = serveSetup(ctx, e)
		return 0, err
	})
	if err != nil {
		if child != nil {
			child.stop()
		}
		return nil, err
	}
	defer child.stop()
	if e.trace {
		return traceServe(ctx, e, rep, child)
	}

	warm := child.warm(ctx, e.seed)
	// Measured phase: segments of about segmentLen with a host probe
	// before the first and after every segment, while no request is in
	// flight.
	sp := &speed{e: e}
	sp.mark()
	var (
		rs        []serveResult
		lat       []float64
		wall, cpu time.Duration
		next      int
	)
	pid := child.cmd.Process.Pid
	for seg, start := 0, time.Now(); seg == 0 || time.Since(start) < e.window; seg++ {
		cpu0, _, err := procUsage(pid)
		if err != nil {
			return nil, err
		}
		first, segStart := next, time.Now()
		segRs := serveStream(ctx, child, e.seed, first, func(i int) bool { return i > first && time.Since(segStart) >= segmentLen }, nil)
		segEnd := time.Now()
		cpu1, _, err := procUsage(pid)
		if err != nil {
			return nil, err
		}
		sp.mark()
		wall += sp.ref(seg, e.took(segStart, segEnd))
		cpu += sp.ref(seg, cpu1-cpu0)
		for _, r := range segRs {
			lat = append(lat, ms(sp.ref(seg, e.took(r.sent, r.done))))
			next = max(next, r.index+1)
		}
		rs = append(rs, segRs...)
	}
	_, rss, err := procUsage(pid)
	if err != nil {
		return nil, err
	}
	if err := child.stop(); err != nil {
		rep.fail(0, "colab-serve shutdown: %v", err)
	}

	ref, events, err := serveReference(ctx, e.seed)
	if err != nil {
		return nil, err
	}
	verifyServe(rep, e.seed, warm, ref)
	verifyServe(rep, e.seed, rs, ref)
	var cells int
	var ev uint64
	for _, r := range rs {
		cells += len(r.lines)
		for _, l := range r.lines {
			ev += events[l.CellKey]
		}
	}
	if cells == 0 {
		return nil, errors.New("no cells streamed in the measured window")
	}
	endToEnd{
		setupS:       setupS / sp.slow(0),
		cellsPerS:    float64(cells) / wall.Seconds(),
		eventsPerS:   float64(ev) / wall.Seconds(),
		reqMS:        lat,
		cpuPerCell:   cpu / time.Duration(cells),
		peakRSSBytes: rss,
	}.apply(rep)
	return rep, nil
}

// traceServe runs the stream untraced for half the window on the set-up
// child, then replays exactly the same requests traced on a fresh child.
// Both passes must return the same cells, bit for bit.
func traceServe(ctx context.Context, e *env, rep *report, child *serveChild) (*report, error) {
	gc0 := readGC()
	child.warm(ctx, e.seed)
	start := time.Now()
	plain := serveStream(ctx, child, e.seed, 0, func(i int) bool { return i > 0 && time.Since(start) >= e.window/2 }, nil)
	e.clock.sample()
	dPlain := e.took(start, time.Now())
	n := 0
	for _, r := range plain {
		n = max(n, r.index+1)
	}

	fresh, err := startServe(ctx, e)
	if err != nil {
		return nil, err
	}
	defer fresh.stop()
	tr := newTracer()
	fresh.warm(ctx, e.seed)
	cpu0, _, err := procUsage(fresh.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	traced := serveStream(ctx, fresh, e.seed, 0, func(i int) bool { return i >= n }, tr)
	e.clock.sample()
	dTraced := e.took(start, time.Now())
	cpu1, _, err := procUsage(fresh.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	st, err := fresh.stats()
	if err != nil {
		return nil, err
	}
	gc1 := readGC()

	ref, _, err := serveReference(ctx, e.seed)
	if err != nil {
		return nil, err
	}
	verifyServe(rep, e.seed, plain, ref)
	verifyServe(rep, e.seed, traced, ref)
	byIndex := make(map[int]serveResult, len(plain))
	for _, r := range plain {
		byIndex[r.index] = r
	}
	var cells, bytes int
	var first []float64
	for _, r := range traced {
		p := byIndex[r.index]
		same := len(p.lines) == len(r.lines)
		for i := 0; same && i < len(r.lines); i++ {
			same = p.lines[i] == r.lines[i]
		}
		if !same {
			rep.fail(1, "traced request %d returned different cells from the untraced run", r.index)
		}
		cells += len(r.lines)
		bytes += r.bytes
		first = append(first, ms(r.firstCell))
	}
	spans := tr.all()
	rep.spans = spans
	l := newLayers(spans)
	hits, misses := float64(st.Cache.Hits), float64(st.Cache.Misses)
	l.set("experiment.cache_hits", hits)
	l.set("experiment.cache_misses", misses)
	l.set("experiment.cache_evictions", float64(st.Cache.Evictions))
	l.set("experiment.cache_hit_ratio", hits/(hits+misses))
	l.set("serve.requests", float64(st.Requests))
	l.set("serve.rejected", float64(st.Rejected))
	l.set("serve.first_cell_p50_ms", quantile(first, 0.5))
	l.set("serve.bytes_per_cell", float64(bytes)/float64(max(cells, 1)))
	l.set("serve.cpu_ms", ms(cpu1-cpu0))
	l.set("serve.cache_hit_ratio", hits/(hits+misses))
	l.set("serve.evictions", float64(st.Cache.Evictions))
	l.set("trace.overhead_ratio", dTraced.Seconds()/dPlain.Seconds())
	l.set("req.samples", float64(len(traced)))
	l.apply(rep)
	setGoMetrics(rep, gc0, gc1, cells, 0)
	return rep, nil
}
