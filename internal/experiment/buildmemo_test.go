package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// tracedRun runs w on cfg under kind and returns the result with a digest
// of its scheduling-event stream.
func tracedRun(t *testing.T, r *Runner, cfg cpu.Config, kind string, w *task.Workload) (*kernel.Result, string) {
	t.Helper()
	h := sha256.New()
	res, err := r.runPolicy(context.Background(), cfg, kind, w, func(ev kernel.TraceEvent) { fmt.Fprintln(h, ev) })
	if err != nil {
		t.Errorf("%s: %v", kind, err)
		return nil, ""
	}
	return res, fmt.Sprintf("%x", h.Sum(nil))
}

// Runs of instances of one closed build — one after the other, and
// concurrently — must each equal a run of a fresh BuildFor, under every
// policy family. fft rewrites Thread.Profile at its Phase ops and WASH
// narrows Thread.Affinity; neither may leak from one run into the next
// through the shared build.
func TestInstanceRunsMatchFreshBuild(t *testing.T) {
	r := testRunner(t)
	spec, err := workload.ParseSpec("fft:4+ferret:4@arrive=poisson(3ms)+dedup:3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.Config2B2M2S
	closed, err := spec.BuildClosed(r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	instance := func() *task.Workload {
		w, err := mixInstance(spec, closed, r.Seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	for _, kind := range []string{SchedLinux, SchedWASH, SchedGTS, SchedEAS, SchedCOLAB} {
		fresh, err := spec.BuildFor(r.Seed, cfg.AggregateCapacity())
		if err != nil {
			t.Fatal(err)
		}
		want, wantTrace := tracedRun(t, r, cfg, kind, fresh)
		check := func(how string, got *kernel.Result, gotTrace string) {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, %s run: result differs from a fresh build's", kind, how)
			}
			if gotTrace != wantTrace {
				t.Errorf("%s, %s run: trace differs from a fresh build's", kind, how)
			}
		}
		for i := 0; i < 2; i++ {
			w := instance()
			got, tr := tracedRun(t, r, cfg, kind, w)
			check("sequential", got, tr)
			if kind == SchedWASH && !narrowed(w) {
				t.Errorf("wash narrowed no affinity; the test no longer covers it")
			}
		}
		var wg sync.WaitGroup
		ws := []*task.Workload{instance(), instance()}
		results := make([]*kernel.Result, len(ws))
		traces := make([]string, len(ws))
		for i := range ws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], traces[i] = tracedRun(t, r, cfg, kind, ws[i])
			}(i)
		}
		wg.Wait()
		for i := range ws {
			check("concurrent", results[i], traces[i])
		}
	}
	// The build itself never ran: Phase ops and affinity narrowing
	// happened on the instances only.
	pristine, err := spec.BuildClosed(r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(closed, pristine) {
		t.Errorf("running instances modified the shared closed build")
	}
}

// narrowed reports whether any thread of w ended with an affinity other
// than all cores.
func narrowed(w *task.Workload) bool {
	for _, th := range w.Threads() {
		if !th.Affinity.Equal(task.MaskAll()) {
			return true
		}
	}
	return false
}

// A 2-worker matrix must run exactly one baseline per distinct
// BaselineKey: workers reaching one key at once share its run.
func TestBatchRunsEachBaselineOnce(t *testing.T) {
	r := testRunner(t)
	var specs []workload.Spec
	for _, idx := range []string{"Sync-1", "Comm-1", "Rand-1"} {
		specs = append(specs, compByIndex(t, idx).Spec())
	}
	// 4B2S and 2B4S share a core count, and so their baselines.
	cfgs := []cpu.Config{cpu.Config2B2S, cpu.Config2B4S, cpu.Config4B2S}
	b := &Batch{
		Scenarios: specs,
		Configs:   cfgs,
		Policies:  PaperSchedulers(),
		Seeds:     []uint64{r.Seed},
		Workers:   2,
		Speedup:   r.Speedup,
		runners:   map[uint64]*Runner{r.Seed: r},
	}
	if _, err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for _, spec := range specs {
		for _, cfg := range cfgs {
			for i := 0; i < spec.NumApps(); i++ {
				keys[BaselineKey(spec, i, cfg.NumCores(), r.Seed, b.Params)] = true
			}
		}
	}
	if r.baselines.misses != len(keys) {
		t.Errorf("%d baseline runs for %d distinct baseline keys", r.baselines.misses, len(keys))
	}
}

// A baseline leader whose context is cancelled must hand the key to a
// waiter, which runs it, instead of failing the waiter.
func TestCancelledBaselineLeaderHandsOff(t *testing.T) {
	r := testRunner(t)
	alone, err := workload.SingleProgram("swaptions", 2, r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	const key = "handoff"
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inLeader := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, err := r.baseline(leaderCtx, key, 2, func() (*task.Workload, error) {
			close(inLeader)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		if err == nil {
			t.Error("cancelled leader must error")
		}
	}()
	<-inLeader
	waiterDone := make(chan sim.Time, 1)
	go func() {
		v, err := r.baseline(context.Background(), key, 2, func() (*task.Workload, error) { return alone.Instance(), nil })
		if err != nil {
			t.Error(err)
		}
		waiterDone <- v
	}()
	// Cancel the leader only once the waiter waits on it.
	for waiting := 0; waiting == 0; runtime.Gosched() {
		r.baselines.mu.Lock()
		waiting = r.baselines.waits
		r.baselines.mu.Unlock()
	}
	cancelLeader()
	<-leaderDone
	got := <-waiterDone
	res, err := r.runPolicy(context.Background(), cpu.NewSymmetric(cpu.Big, 2), SchedLinux, alone.Instance(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Apps[0].Turnaround; got != want {
		t.Errorf("waiter got turnaround %v, want %v", got, want)
	}
	// The handed-off value is memoised: a later caller does not run.
	v, err := r.baseline(context.Background(), key, 2, func() (*task.Workload, error) {
		return nil, fmt.Errorf("baseline recomputed")
	})
	if err != nil || v != got {
		t.Errorf("memoised baseline = %v, %v; want %v", v, err, got)
	}
	if r.baselines.misses != 2 {
		t.Errorf("%d baseline computations, want the cancelled leader's and the waiter's", r.baselines.misses)
	}
}
