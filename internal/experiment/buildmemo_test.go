package experiment

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
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
// BaselineKey: workers reaching one key at once share its run, filed in
// the batch's Cache.
func TestBatchRunsEachBaselineOnce(t *testing.T) {
	r := testRunner(t)
	cache := NewCache()
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
		Cache:     cache,
	}
	if _, err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	keys := batchBaselineKeys(b)
	if cache.baselines.misses != uint64(len(keys)) {
		t.Errorf("%d baseline runs for %d distinct baseline keys", cache.baselines.misses, len(keys))
	}
	for k := range cache.baselines.items {
		if !keys[k] {
			t.Errorf("baseline filed under %q, which is no BaselineKey of the batch", k)
		}
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
	waiterCtx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
	waiterDone := make(chan sim.Time, 1)
	go func() {
		v, err := r.baseline(waiterCtx, key, 2, func() (*task.Workload, error) { return alone.Instance(), nil })
		if err != nil {
			t.Error(err)
		}
		waiterDone <- v
	}()
	// Cancel the leader only once the waiter waits on it.
	<-waiterCtx.waiting
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
	if r.cache.baselines.misses != 2 {
		t.Errorf("%d baseline computations, want the cancelled leader's and the waiter's", r.cache.baselines.misses)
	}
}

// batchBaselineKeys returns the distinct BaselineKeys of b's cells.
func batchBaselineKeys(b *Batch) map[string]bool {
	keys := make(map[string]bool)
	for _, seed := range b.Seeds {
		for _, spec := range b.Scenarios {
			for _, cfg := range b.Configs {
				for i := 0; i < spec.NumApps(); i++ {
					keys[BaselineKey(spec, i, cfg.NumCores(), seed, b.Params)] = true
				}
			}
		}
	}
	return keys
}

// smallBatch is a 2-worker batch of two mixes on three machines of two core
// counts under the paper's schedulers.
func smallBatch(t *testing.T, cache *Cache) *Batch {
	t.Helper()
	r := testRunner(t)
	return &Batch{
		Scenarios: []workload.Spec{compByIndex(t, "Sync-1").Spec(), compByIndex(t, "Comm-1").Spec()},
		Configs:   []cpu.Config{cpu.Config2B2S, cpu.Config2B4S, cpu.Config4B2S},
		Policies:  PaperSchedulers(),
		Seeds:     []uint64{r.Seed},
		Workers:   2,
		Speedup:   r.Speedup,
		Cache:     cache,
	}
}

// A second batch over a shared Cache whose limit evicts cells but holds
// every baseline recomputes the evicted cells and runs no baseline again.
func TestSharedCacheKeepsBaselinesAcrossBatches(t *testing.T) {
	cache := NewCache()
	first := smallBatch(t, cache)
	keys := batchBaselineKeys(first)
	cells := len(first.Scenarios) * len(first.Configs) * len(first.Policies)
	if cells <= len(keys) {
		t.Fatalf("%d cells fit a limit of %d baselines; the test needs evictions", cells, len(keys))
	}
	cache.SetLimit(len(keys))
	want, err := first.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	runs := cache.baselines.misses
	if runs != uint64(len(keys)) {
		t.Fatalf("first batch ran %d baselines for %d keys", runs, len(keys))
	}
	before := cache.Stats()
	got, err := smallBatch(t, cache).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Misses == before.Misses || after.Evictions == before.Evictions {
		t.Errorf("second batch recomputed no evicted cell (stats %+v -> %+v)", before, after)
	}
	if cache.baselines.misses != runs {
		t.Errorf("second batch ran %d baselines the first already ran", cache.baselines.misses-runs)
	}
	for i := range want {
		if got[i].Score != want[i].Score {
			t.Errorf("cell %v: %+v, first batch %+v", got[i].Key, got[i].Score, want[i].Score)
		}
	}
}

// A batch with no Cache still runs each baseline once within its run, and
// memoises no cell.
func TestBatchWithoutCacheMemoisesBaselines(t *testing.T) {
	b := smallBatch(t, nil)
	memo := NewCache()
	if _, err := b.run(context.Background(), memo); err != nil {
		t.Fatal(err)
	}
	if keys := batchBaselineKeys(b); memo.baselines.misses != uint64(len(keys)) {
		t.Errorf("%d baseline runs for %d distinct baseline keys", memo.baselines.misses, len(keys))
	}
	if st := memo.Stats(); st.Cells != 0 || st.Misses != 0 {
		t.Errorf("a batch without a Cache memoised cells: %+v", st)
	}
}

// Stats counts cells only: the baselines beside them add no cell, hit,
// miss or eviction, and a limit bounds them separately.
func TestCacheStatsCountCellsOnly(t *testing.T) {
	cache := NewCache()
	b := smallBatch(t, cache)
	if _, err := b.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cells := len(b.Scenarios) * len(b.Configs) * len(b.Policies)
	if len(cache.baselines.items) == 0 {
		t.Fatal("the batch filed no baseline in its Cache")
	}
	want := CacheStats{Cells: cells, Misses: uint64(cells)}
	if st := cache.Stats(); st != want {
		t.Errorf("Stats() = %+v, want %+v", st, want)
	}
	cache.SetLimit(1)
	want = CacheStats{Cells: 1, Misses: uint64(cells), Evictions: uint64(cells - 1), Limit: 1}
	if st := cache.Stats(); st != want {
		t.Errorf("Stats() under a limit of 1 = %+v, want %+v", st, want)
	}
	if n := len(cache.baselines.items); n != 1 {
		t.Errorf("a limit of 1 left %d baselines", n)
	}
}

// waitingCtx closes waiting the first time its Done channel is asked for.
// store.Do asks for it only while it waits on another caller's compute,
// so a test can act once a caller has become a waiter.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// After forget, a Do of the key computes it again and counts a miss.
func TestStoreForgetRecomputes(t *testing.T) {
	var s store[int, string]
	ctx := context.Background()
	computes := 0
	compute := func() (string, error) {
		computes++
		return "v", nil
	}
	for i := 0; i < 2; i++ {
		if v, cached, err := s.Do(ctx, 1, compute); err != nil || v != "v" || cached != (i == 1) {
			t.Fatalf("Do #%d = (%q, %v, %v)", i, v, cached, err)
		}
	}
	s.forget(1)
	s.forget(2) // forgetting an absent key is a no-op
	if v, cached, err := s.Do(ctx, 1, compute); err != nil || v != "v" || cached {
		t.Fatalf("Do after forget = (%q, %v, %v), want a fresh compute", v, cached, err)
	}
	if computes != 2 || s.misses != 2 || s.hits != 1 {
		t.Errorf("%d computes, %d misses, %d hits; want 2, 2, 1", computes, s.misses, s.hits)
	}
	if len(s.items) != 1 || s.lru.Len() != 1 {
		t.Errorf("store holds %d items over %d LRU entries, want 1 and 1", len(s.items), s.lru.Len())
	}
}
