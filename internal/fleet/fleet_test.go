package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colab/internal/experiment"
)

// testSpec is the failure-path sweep: 2 seeds x 2 scenarios = 4
// baseline-sharing groups (so it deals cleanly over 2 or 4 shards), 2
// policies, 8 cells total.
func testSpec() Spec {
	return Spec{
		Workloads: []string{"Sync-1", "Comp-1"},
		Machines:  []string{"2B2S"},
		Policies:  []string{"linux", "wash"},
		Seeds:     []uint64{1, 2},
		Workers:   2,
	}
}

// localCells runs the spec unsharded in-process: the byte-identity
// reference every fleet assembly is compared against.
func localCells(t *testing.T, spec Spec) []experiment.BatchCell {
	t.Helper()
	b, err := spec.Batch(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// fastCoordinator keeps the failure-path tests quick: a tight heartbeat
// timeout for workers beating every 50ms, but a generous overall wait.
func fastCoordinator(opts Options) *Coordinator {
	c := NewCoordinator(opts)
	c.heartbeatTimeout = 400 * time.Millisecond
	c.workerWait = 10 * time.Second
	return c
}

type testFleet struct {
	coord   *Coordinator
	url     string
	workers []*Worker
	servers []*httptest.Server
	// beatCancels stops one worker's heartbeat loop (simulating its death
	// to the liveness tracker without stopping its HTTP server).
	beatCancels []context.CancelFunc
}

// newTestFleet starts a coordinator and n workers on loopback httptest
// servers, with every worker registering and heartbeating for real.
func newTestFleet(t *testing.T, n int, opts Options) *testFleet {
	t.Helper()
	tf := &testFleet{coord: fastCoordinator(opts)}
	cts := httptest.NewServer(tf.coord)
	t.Cleanup(cts.Close)
	tf.url = cts.URL
	for i := 0; i < n; i++ {
		w := NewWorker(nil)
		wts := httptest.NewServer(w)
		t.Cleanup(wts.Close)
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		tf.workers = append(tf.workers, w)
		tf.servers = append(tf.servers, wts)
		tf.beatCancels = append(tf.beatCancels, cancel)
		go RegisterAndHeartbeat(ctx, nil, cts.URL, wts.URL, 50*time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tf.coord.WaitWorkers(ctx, n); err != nil {
		t.Fatalf("workers never registered: %v", err)
	}
	return tf
}

// runAndCheck runs the spec on the fleet and asserts the assembled stream
// is bit-identical to the unsharded in-process run: same cells, same
// global order, same float bits. Returns the observer stream.
func runAndCheck(t *testing.T, tf *testFleet, spec Spec) []Cell {
	t.Helper()
	ref := localCells(t, spec)
	var (
		mu       sync.Mutex
		streamed []Cell
		indices  []int
	)
	cells, err := tf.coord.Run(context.Background(), spec, func(i int, c Cell) {
		mu.Lock()
		streamed = append(streamed, c)
		indices = append(indices, i)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(ref) {
		t.Fatalf("observer saw %d cells, local run has %d", len(streamed), len(ref))
	}
	if !reflect.DeepEqual(cells, streamed) {
		t.Fatalf("Run returned cells that differ from the streamed ones:\n  returned %+v\n  streamed %+v", cells, streamed)
	}
	for i, c := range streamed {
		if indices[i] != i {
			t.Fatalf("observer delivery out of order: cell %d arrived at position %d", indices[i], i)
		}
		want := ref[i]
		if c.Workload != want.Key.Workload || c.Machine != want.Key.Config ||
			c.Policy != want.Key.Policy || c.Seed != want.Key.Seed {
			t.Errorf("cell %d coordinates %s/%s/%s/%d, local %s/%s/%s/%d",
				i, c.Workload, c.Machine, c.Policy, c.Seed,
				want.Key.Workload, want.Key.Config, want.Key.Policy, want.Key.Seed)
		}
		if c.HANTT != want.Score.HANTT || c.HSTP != want.Score.HSTP {
			t.Errorf("cell %d scores (%v,%v) not bit-identical to local (%v,%v)",
				i, c.HANTT, c.HSTP, want.Score.HANTT, want.Score.HSTP)
		}
		if c.Key != want.CellKey.String() {
			t.Errorf("cell %d key %q, local %q", i, c.Key, want.CellKey.String())
		}
	}
	return streamed
}

// A healthy fleet of two workers reproduces the unsharded run exactly.
func TestFleetMatchesLocalRun(t *testing.T) {
	tf := newTestFleet(t, 2, Options{})
	runAndCheck(t, tf, testSpec())
	ran := 0
	for _, w := range tf.workers {
		if w.Stats().Requests > 0 {
			ran++
		}
	}
	if ran != 2 {
		t.Errorf("%d of 2 workers ran shards; the sweep was not actually distributed", ran)
	}
}

// More shards than workers queue and drain across the fleet.
func TestFleetMoreShardsThanWorkers(t *testing.T) {
	tf := newTestFleet(t, 2, Options{Shards: 4})
	runAndCheck(t, tf, testSpec())
}

// The kill test: one worker dies (connection cut, no clean EOF) after
// streaming two cells of its shard. The coordinator must reassign the
// shard to the survivor, shipping the two completed cells as a checkpoint
// journal so they replay rather than recompute; the re-streamed
// duplicates must be ingested idempotently; and the merged output must be
// byte-identical to the unsharded run with every cell delivered once.
func TestFleetWorkerKilledMidShardIsReassigned(t *testing.T) {
	tf := newTestFleet(t, 2, Options{})
	var killed atomic.Bool
	tf.workers[0].FaultInjector = func(shard, cell int) error {
		if cell == 2 && killed.CompareAndSwap(false, true) {
			return context.Canceled // any non-nil error: die now
		}
		return nil
	}
	streamed := runAndCheck(t, tf, testSpec())
	if !killed.Load() {
		t.Fatal("fault injector never fired; the kill path was not exercised")
	}
	if n := len(streamed); n != 8 {
		t.Fatalf("streamed %d cells, want 8", n)
	}
	// The survivor must have received the dead worker's partial journal.
	seeded := tf.workers[0].Stats().JournalSeeded + tf.workers[1].Stats().JournalSeeded
	if seeded != 2 {
		t.Errorf("replacement worker was seeded %d journal records, want the 2 cells streamed before the kill", seeded)
	}
	// ...and replayed the shipped cells instead of simulating them again.
	// A replayed cell never reaches the worker's cache, so the survivor's
	// cache saw at most one full shard (its own, or the killed attempt at
	// this one) plus the reassigned shard's unshipped cells. Recomputing
	// the shipped cells would push it past that bound.
	const perShard = 4 // testSpec's 8 cells dealt over 2 shards
	for i, w := range tf.workers {
		st := w.Stats()
		if st.JournalSeeded == 0 {
			continue
		}
		if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 2*perShard-2 {
			t.Errorf("survivor %d made %d cache lookups, want <= %d: the 2 shipped cells were computed again", i, lookups, 2*perShard-2)
		}
	}
}

// A worker that hangs mid-shard and stops heartbeating is declared dead;
// the in-flight dispatch is abandoned and the shard completes elsewhere.
func TestFleetHungWorkerIsAbandoned(t *testing.T) {
	tf := newTestFleet(t, 2, Options{})
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	var hung atomic.Bool
	tf.workers[0].FaultInjector = func(shard, cell int) error {
		if hung.CompareAndSwap(false, true) {
			tf.beatCancels[0]() // heartbeats stop exactly as the hang begins
			<-hang
		}
		return nil
	}
	runAndCheck(t, tf, testSpec())
	if !hung.Load() {
		t.Fatal("hang injector never fired")
	}
}

// A worker that dies is retired by its first failed dispatch, not only
// once its heartbeat ages out: while the survivor is busy, the dead
// worker's shard waits for it instead of spending every attempt on
// refused connections to the dead worker.
func TestFleetDeadWorkerDoesNotSpendRetries(t *testing.T) {
	tf := newTestFleet(t, 2, Options{})
	var died, held atomic.Bool
	tf.workers[0].FaultInjector = func(shard, cell int) error {
		if died.CompareAndSwap(false, true) {
			tf.servers[0].Listener.Close() // later dispatches are refused
			tf.beatCancels[0]()
			return context.Canceled
		}
		return nil
	}
	tf.workers[1].FaultInjector = func(shard, cell int) error {
		if held.CompareAndSwap(false, true) {
			// Busy for longer than a burst of immediate retries to the
			// dead worker takes, and shorter than the heartbeat timeout,
			// so only its failed dispatch can retire the dead worker.
			time.Sleep(300 * time.Millisecond)
		}
		return nil
	}
	runAndCheck(t, tf, testSpec())
	if !died.Load() || !held.Load() {
		t.Fatalf("fault injectors fired: died=%v held=%v, want both", died.Load(), held.Load())
	}
}

// A cancelled Run hands its workers back: the next Run on the same
// coordinator finds them free and live, not held by the abandoned
// attempts.
func TestFleetCancelledRunFreesWorkers(t *testing.T) {
	tf := newTestFleet(t, 2, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	for _, w := range tf.workers {
		w.FaultInjector = func(shard, cell int) error {
			if calls.Add(1) == 2 {
				cancel() // both shards have been dealt
			}
			return nil
		}
	}
	if _, err := tf.coord.Run(ctx, testSpec(), nil); err == nil {
		t.Fatal("cancelled run succeeded")
	}
	done := make(chan error, 1)
	go func() {
		_, err := tf.coord.Run(context.Background(), testSpec(), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after a cancelled one: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatalf("run after a cancelled one still waiting after 3s; workers = %+v", tf.coord.Workers())
	}
}

// A worker registering after Run has started joins the dispatch pool: a
// one-worker fleet that dies is rescued by a late arrival. The dead
// worker spends no attempt after its first failure, so the default
// attempt bound holds.
func TestFleetLateWorkerRescuesRun(t *testing.T) {
	tf := newTestFleet(t, 1, Options{Shards: 2})
	var kills atomic.Int32
	tf.workers[0].FaultInjector = func(shard, cell int) error {
		// The sole worker dies on every attempt until the rescuer arrives.
		if kills.Add(1) == 1 {
			tf.beatCancels[0]()
		}
		return context.Canceled
	}
	spec := testSpec()
	ref := localCells(t, spec)
	resc := NewWorker(nil)
	rts := httptest.NewServer(resc)
	t.Cleanup(rts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		time.Sleep(100 * time.Millisecond)
		RegisterAndHeartbeat(ctx, nil, tf.url, rts.URL, 50*time.Millisecond)
	}()
	cells, err := tf.coord.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(ref) {
		t.Fatalf("rescued run assembled %d cells, want %d", len(cells), len(ref))
	}
	if resc.Stats().Requests == 0 {
		t.Error("late worker never ran a shard")
	}
}

// With no workers at all, Run fails after the worker wait timeout instead
// of hanging.
func TestFleetNoWorkersFailsFast(t *testing.T) {
	c := fastCoordinator(Options{})
	c.workerWait = 200 * time.Millisecond
	_, err := c.Run(context.Background(), testSpec(), nil)
	if err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("empty fleet must fail fast, got: %v", err)
	}
}

// An invalid spec fails at once with the bad input named, even on an
// empty fleet: validation comes before the wait for workers.
func TestFleetRejectsBadSpecBeforeWaiting(t *testing.T) {
	c := fastCoordinator(Options{})
	spec := testSpec()
	spec.Policies = []string{"nope"}
	start := time.Now()
	_, err := c.Run(context.Background(), spec, nil)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown policy must be named, got: %v", err)
	}
	if took := time.Since(start); took > c.workerWait/4 {
		t.Errorf("rejection took %v, want well inside the worker wait timeout %v", took, c.workerWait)
	}
}

// A shard that keeps dying exhausts its attempts and fails the run with
// the shard named.
func TestFleetExhaustedRetriesFailRun(t *testing.T) {
	tf := newTestFleet(t, 1, Options{})
	tf.coord.maxAttempts = 2
	tf.workers[0].FaultInjector = func(shard, cell int) error { return context.Canceled }
	_, err := tf.coord.Run(context.Background(), testSpec(), nil)
	if err == nil || !strings.Contains(err.Error(), "failed 2 times") {
		t.Fatalf("exhausted retries must fail the run, got: %v", err)
	}
}

// Registration is idempotent and validated; /workers reports the fleet.
func TestRegistrationEndpoints(t *testing.T) {
	c := fastCoordinator(Options{})
	cts := httptest.NewServer(c)
	defer cts.Close()
	post := func(path, body string) (int, string) {
		resp, err := http.Post(cts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		reply, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(reply)
	}
	if code, _ := post("/register", `not json`); code != http.StatusBadRequest {
		t.Errorf("malformed registration -> %d, want 400", code)
	}
	// Only an http:// or https:// URL with a host can be dispatched to.
	for _, bad := range []string{"not a url", "httpfoo", "https", "http:/host:8081", "http://", "ftp://host:21"} {
		code, reply := post("/register", fmt.Sprintf(`{"url":%q}`, bad))
		if code != http.StatusBadRequest || !strings.Contains(reply, fmt.Sprintf("%q", bad)) {
			t.Errorf("registration of %q -> %d %q, want 400 quoting the URL", bad, code, reply)
		}
	}
	for i := 0; i < 2; i++ {
		if code, _ := post("/register", `{"url":"http://127.0.0.1:7777"}`); code != http.StatusOK {
			t.Errorf("registration %d -> %d, want 200", i, code)
		}
	}
	if code, _ := post("/heartbeat", `{"url":"http://127.0.0.1:7778"}`); code != http.StatusOK {
		t.Errorf("heartbeat-first registration -> %d, want 200 (heartbeats upsert)", code)
	}
	resp, err := http.Get(cts.URL + "/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []WorkerInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || !infos[0].Live || infos[0].URL != "http://127.0.0.1:7777" {
		t.Errorf("workers = %+v, want the two registered URLs, live", infos)
	}
	// A failed dispatch retires a worker until its next beat, and the
	// registry keeps reporting its true heartbeat age meanwhile.
	c.releaseWorker("http://127.0.0.1:7777", true)
	if w := c.Workers()[0]; w.Live || w.LastBeatAge > time.Second {
		t.Errorf("after a failed dispatch: %+v, want not live with a fresh beat", w)
	}
	if code, _ := post("/heartbeat", `{"url":"http://127.0.0.1:7777"}`); code != http.StatusOK || !c.Workers()[0].Live {
		t.Errorf("heartbeat -> %d, live %v; want 200 and the worker live again", code, c.Workers()[0].Live)
	}
}

// The worker endpoint rejects malformed and unresolvable requests cleanly
// before streaming.
func TestWorkerRejectsBadRequests(t *testing.T) {
	w := NewWorker(nil)
	wts := httptest.NewServer(w)
	defer wts.Close()
	for _, tc := range []struct {
		name string
		body string
	}{
		{"not json", "nope"},
		{"empty spec", `{"spec":{}}`},
		{"unknown machine", `{"spec":{"workloads":["Sync-1"],"machines":["9B9S"],"policies":["linux"],"seeds":[1]}}`},
		{"unknown policy", `{"spec":{"workloads":["Sync-1"],"machines":["2B2S"],"policies":["nope"],"seeds":[1]}}`},
		{"bad shard", `{"spec":{"workloads":["Sync-1"],"machines":["2B2S"],"policies":["linux"],"seeds":[1]},"shard_index":3,"shard_count":2}`},
	} {
		resp, err := http.Post(wts.URL+"/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %s, want 400", tc.name, resp.Status)
		}
	}
	// A GET is a query, and one without a workload names the parameter.
	resp, err := http.Get(wts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "workload") {
		t.Errorf("GET /run -> %s %q, want 400 naming workload", resp.Status, body)
	}
}

// The wire round trip preserves float bits: a cell encoded and decoded
// through the NDJSON stream is the exact score the worker computed.
func TestWireFloatRoundTrip(t *testing.T) {
	in := Cell{Workload: "w", HANTT: 1.0 / 3.0, HSTP: 2.0000000000000004}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(streamLine{Cell: in}); err != nil {
		t.Fatal(err)
	}
	var out streamLine
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.HANTT != in.HANTT || out.HSTP != in.HSTP {
		t.Fatalf("floats not bit-identical after wire round trip: %v vs %v", out.Cell, in)
	}
}

// A spec term that replays a local trace file has no wire form: the
// worker rejects it before streaming, naming the offending term.
func TestWorkerRejectsTraceFileSpecs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arrivals.trace")
	if err := os.WriteFile(path, []byte("0\n5ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := NewWorker(nil)
	wts := httptest.NewServer(w)
	defer wts.Close()
	body := fmt.Sprintf(`{"spec":{"workloads":["dedup:2*2@arrive=tracefile(%s)"],"machines":["2B2S"],"policies":["linux"],"seeds":[1]}}`, path)
	resp, err := http.Post(wts.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tracefile spec -> %s, want 400 (body %q)", resp.Status, reply)
	}
	if !strings.Contains(string(reply), "trace file") || !strings.Contains(string(reply), "dedup") {
		t.Errorf("rejection does not name the trace-file term: %q", reply)
	}
}
