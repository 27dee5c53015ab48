package colab

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/perfmodel"
	"colab/internal/sched/cfs"
	"colab/internal/sched/eas"
	"colab/internal/sched/gts"
	"colab/internal/sched/wash"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// The differential arm of the selector and allocator tests: every
// optimised selector, and the CFS allocator's placement, runs next to a
// reference stage that keeps the plain full-scan search (every core of
// every tier, in core order), and both must produce identical Results and
// traces on generated workloads. The reference stages sit here, inside
// package colab, because COLAB's reads the selector's unexported
// configuration and the fold it checks is unexported; the CFS family's
// stages (linux, wash, gts and eas) only need the exported API.

// refSelector is COLAB's thread selector with the full-scan searches: a
// local-queue scan, one scan of the tier's core list per tier in steal
// order, and a pull over every lower-tier core, all ranked by a pointer
// comparator that re-reads both hints on every comparison. It borrows only
// the optimised stage's configuration (steal order, fairness window,
// switched-off features) and its slice hooks.
type refSelector struct{ *SelectorStage }

func (s refSelector) PickNext(c *kernel.Core) *task.Thread {
	qs := s.pc.Queues()
	if t := s.foldQueue(nil, c.ID, c.ID); t != nil {
		qs.Remove(t)
		return t
	}
	m := s.pc.Machine()
	if s.off&Steal == 0 {
		for _, tier := range s.stealOrder[int(c.Kind)] {
			var best *task.Thread
			for _, id := range m.TierCoreIDs(tier) {
				if id != c.ID {
					best = s.foldQueue(best, id, c.ID)
				}
			}
			if best != nil {
				qs.Remove(best)
				return best
			}
		}
	}
	if int(c.Kind) > 0 && s.off&Pull == 0 {
		return s.pullFromLower(c)
	}
	return nil
}

// foldQueue returns the most critical of best and the threads queued on q
// that may run on dest, comparing in queue order.
func (s refSelector) foldQueue(best *task.Thread, q, dest int) *task.Thread {
	qs := s.pc.Queues()
	for i, n := 0, qs.Len(q); i < n; i++ {
		t := qs.Thread(q, i)
		if t.AllowedOn(dest) && (best == nil || s.moreCritical(t, best)) {
			best = t
		}
	}
	return best
}

func (s refSelector) pullFromLower(c *kernel.Core) *task.Thread {
	var best *task.Thread
	m := s.pc.Machine()
	for tier := 0; tier < int(c.Kind); tier++ {
		for _, id := range m.TierCoreIDs(tier) {
			t := m.Cores()[id].Current
			if t == nil || t.State != task.Running || !t.AllowedOn(c.ID) {
				continue
			}
			if best == nil || s.moreCritical(t, best) {
				best = t
			}
		}
	}
	return best
}

// moreCritical is the criticality order written over threads: the fairness
// window on vruntime, then higher blame, higher predicted speedup, lower
// vruntime.
func (s refSelector) moreCritical(a, b *task.Thread) bool {
	ha, hb := s.pc.Hints().Get(a), s.pc.Hints().Get(b)
	dv := a.VRuntime - b.VRuntime
	if dv > s.fairnessWindow || dv < -s.fairnessWindow {
		return dv < 0
	}
	if ha.Crit != hb.Crit {
		return ha.Crit > hb.Crit
	}
	if ha.Pred != hb.Pred {
		return ha.Pred > hb.Pred
	}
	return a.VRuntime < b.VRuntime
}

// refCFSSelector is the CFS selector whose idle-balance steal ranks an
// explicit list of source queues, probing every listed queue's length.
type refCFSSelector struct {
	*cfs.SelectorStage
	pc  *kernel.PipelineContext
	all []int // every core, in core order
}

func newRefCFSSelector() *refCFSSelector { return &refCFSSelector{SelectorStage: cfs.NewSelector()} }

func (s *refCFSSelector) Start(pc *kernel.PipelineContext) {
	s.SelectorStage.Start(pc)
	s.pc = pc
	s.all = nil
	for i := 0; i < pc.Queues().NumQueues(); i++ {
		s.all = append(s.all, i)
	}
}

func (s *refCFSSelector) PickNext(c *kernel.Core) *task.Thread {
	if t := s.PopLocal(c.ID); t != nil {
		return t
	}
	return s.stealFrom(c.ID, s.all)
}

func (s *refCFSSelector) stealFrom(core int, from []int) *task.Thread {
	q, m := s.pc.Queues(), s.pc.Machine()
	rank := func(a, b int) bool { // a strictly ahead of b
		da := m.DomainDistance(m.DomainOf(core), m.DomainOf(a))
		db := m.DomainDistance(m.DomainOf(core), m.DomainOf(b))
		if da != db {
			return da < db
		}
		return q.Len(a) > q.Len(b)
	}
	var order []int
	for _, i := range from {
		if i != core && q.Len(i) > 0 {
			order = append(order, i)
		}
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && rank(order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for _, i := range order {
		if t := q.StealMaxAllowed(i, core); t != nil {
			return t
		}
	}
	return nil
}

// refEASSelector is EAS's selector over the reference steal: own tier,
// then (when no cheaper core idles) the lower tiers top-down.
type refEASSelector struct{ *refCFSSelector }

func (s refEASSelector) PickNext(c *kernel.Core) *task.Thread {
	if c.Kind == 0 {
		return s.refCFSSelector.PickNext(c)
	}
	m := s.pc.Machine()
	if t := s.PopLocal(c.ID); t != nil {
		return t
	}
	if t := s.stealFrom(c.ID, m.TierCoreIDs(int(c.Kind))); t != nil {
		return t
	}
	for tier := 0; tier < int(c.Kind); tier++ {
		for _, id := range m.TierCoreIDs(tier) {
			if m.Cores()[id].IsIdle() {
				return nil
			}
		}
	}
	for tier := int(c.Kind) - 1; tier >= 0; tier-- {
		if t := s.stealFrom(c.ID, m.TierCoreIDs(tier)); t != nil {
			return t
		}
	}
	return nil
}

// refCFSAllocator is the CFS allocator whose least-loaded placement probes
// the load of every allowed core, in core order.
type refCFSAllocator struct {
	*cfs.AllocatorStage
	pc *kernel.PipelineContext
}

func newRefCFSAllocator() *refCFSAllocator {
	return &refCFSAllocator{AllocatorStage: cfs.NewAllocator()}
}

func (a *refCFSAllocator) Start(pc *kernel.PipelineContext) {
	a.AllocatorStage.Start(pc)
	a.pc = pc
}

func (a *refCFSAllocator) Enqueue(t *task.Thread, wakeup bool) int {
	core := a.leastLoadedAllowed(t)
	a.Place(t, core, wakeup)
	return core
}

func (a *refCFSAllocator) leastLoadedAllowed(t *task.Thread) int {
	q, cores := a.pc.Queues(), a.pc.Machine().Cores()
	best, bestLoad := -1, int(^uint(0)>>1)
	for i := 0; i < q.NumQueues(); i++ {
		if !t.AllowedOn(i) {
			continue
		}
		l := q.Len(i)
		if cores[i].Current != nil {
			l++
		}
		if l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if best < 0 {
		t.Affinity = task.MaskAll()
		return a.leastLoadedAllowed(t)
	}
	return best
}

// diffPolicy builds one policy twice: optimised and over the reference
// stages, under the same name.
type diffPolicy struct {
	name      string
	optimised func() kernel.Scheduler
	reference func() kernel.Scheduler
}

func diffPolicies(speedup func(*task.Thread) float64) []diffPolicy {
	pipeline := func(name string, lab kernel.Labeler, alloc kernel.Allocator, sel kernel.Selector, gov kernel.Governor) kernel.Scheduler {
		s, err := kernel.NewPipeline(name, lab, alloc, sel, gov)
		if err != nil {
			panic(err)
		}
		return s
	}
	// variant builds one policy over its optimised selector and over the
	// reference one; stages are fresh per build.
	variant := func(name string, build func(sel kernel.Selector) kernel.Scheduler, sel, ref func() kernel.Selector) diffPolicy {
		return diffPolicy{
			name:      name,
			optimised: func() kernel.Scheduler { return build(sel()) },
			reference: func() kernel.Scheduler { return build(ref()) },
		}
	}
	colabVariant := func(name string, flat bool, off Features) diffPolicy {
		return variant(name, func(sel kernel.Selector) kernel.Scheduler {
			return pipeline(name, NewLabeler(speedup, nil, nil), NewAllocator(flat), sel, nil)
		}, func() kernel.Selector { return NewSelector(off) },
			func() kernel.Selector { return refSelector{NewSelector(off)} })
	}
	// cfsVariant is linux, wash or gts: an optional labeler over the CFS
	// allocator and selector, both of which the reference replaces (WASH
	// and GTS affinity steering exercises placement under masks that
	// exclude every unloaded core).
	cfsVariant := func(name string, lab func() kernel.Labeler) diffPolicy {
		build := func(alloc kernel.Allocator, sel kernel.Selector) kernel.Scheduler {
			var l kernel.Labeler
			if lab != nil {
				l = lab()
			}
			return pipeline(name, l, alloc, sel, nil)
		}
		return diffPolicy{
			name:      name,
			optimised: func() kernel.Scheduler { return build(cfs.NewAllocator(), cfs.NewSelector()) },
			reference: func() kernel.Scheduler { return build(newRefCFSAllocator(), newRefCFSSelector()) },
		}
	}
	return []diffPolicy{
		colabVariant("colab", false, 0),
		colabVariant("colab-noscale", false, ScaleSlice),
		colabVariant("colab-local", false, Steal|Pull),
		colabVariant("colab-flat", true, 0),
		colabVariant("colab-nopull", false, Pull),
		cfsVariant("linux", nil),
		cfsVariant("wash", func() kernel.Labeler { return wash.NewLabeler(speedup) }),
		cfsVariant("gts", func() kernel.Labeler { return gts.NewLabeler() }),
		variant("eas", func(sel kernel.Selector) kernel.Scheduler {
			return pipeline("eas", eas.NewLabeler(), eas.NewAllocator(), sel, eas.NewGovernor())
		}, func() kernel.Selector { return eas.NewSelector() },
			func() kernel.Selector { return refEASSelector{newRefCFSSelector()} }),
	}
}

// diffMachines covers both core orders on the paper's shape and the
// tri-gear shape, the 128-core palette and the NUMA palette with its flat
// twin. The named palettes list big cores first, so a pull over lower
// tiers (little, then medium) runs against core order there.
func diffMachines() []cpu.Config {
	numaFlat := cpu.Config2x32B32M64S.Flat()
	numaFlat.Name += "-flat"
	return []cpu.Config{
		cpu.Config2B2S,
		cpu.NewConfig(2, 2, false),
		cpu.Config2B2M2S,
		cpu.NewTieredConfig(cpu.TriGearTiers(), []int{4, 2, 2}, false),
		cpu.Config32B32M64S,
		cpu.Config2x32B32M64S,
		numaFlat,
	}
}

// diffBenchmarks are the generator's programs: data-parallel, pipelined
// and lock-heavy, all valid at any thread count. fluidanimate's very high
// sync rate would cost millions of events per run on the big palettes.
var diffBenchmarks = []string{"blackscholes", "bodytrack", "dedup", "ferret", "radix", "fft", "ocean_cp", "swaptions", "lu_ncb"}

// genMix draws a 2-4 program mix: 4-20 threads on the paper-sized
// machines (as in Table 4), an eighth to five eighths of a thread per core
// on the big palettes (where COLAB's tier-targeted allocation still
// queues work on the upper tiers). Every other mix admits its last program late (an open
// arrival), so queues refill while cores idle.
func genMix(rng *mathx.RNG, cores int) string {
	n := 2 + rng.IntN(3)
	threads := 4 + rng.IntN(17)
	if cores > 8 {
		threads = cores/8 + rng.IntN(cores/2)
	}
	terms := make([]string, n)
	for i := range terms {
		terms[i] = fmt.Sprintf("%s:%d", diffBenchmarks[rng.IntN(len(diffBenchmarks))], max(1, threads/n))
	}
	if rng.IntN(2) == 0 {
		terms[n-1] += "@arrive=2ms"
	}
	return strings.Join(terms, "+")
}

// diffRun simulates w and returns the result with a fingerprint of the
// full scheduling trace; the kernel's invariants are checked throughout.
func diffRun(t *testing.T, cfg cpu.Config, s kernel.Scheduler, w *task.Workload) (*kernel.Result, string) {
	t.Helper()
	m, err := kernel.NewMachine(cfg, s, w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	m.SetTracer(func(e kernel.TraceEvent) {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(e.At))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Core))
		buf = append(append(append(buf, e.Kind...), 0), e.Thread...)
		h.Write(append(buf, 0))
	})
	var steps int
	m.Engine().PostStep = func() {
		if steps++; steps%211 == 0 {
			if v := m.CheckInvariants(); len(v) > 0 {
				t.Fatalf("%s on %s: invariants: %v", s.Name(), cfg.Name, v)
			}
		}
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, fmt.Sprintf("%x", h.Sum(nil))
}

// oversubscribedMix is 288 threads, more than the 256 cores of the NUMA
// palette. On it COLAB's steal and pull fold about 800k candidates per
// run, twelve times as many as on a 128-thread mix.
const oversubscribedMix = "radix:96+fft:96+ocean_cp:96"

// TestDifferentialSelectors runs every optimised selector, and the CFS
// allocator, against its full-scan reference: identical Results and trace
// fingerprints on generated mixes over every machine shape, and on
// oversubscribedMix over the NUMA palette and its flat twin.
func TestDifferentialSelectors(t *testing.T) {
	model, err := perfmodel.Default()
	if err != nil {
		t.Fatal(err)
	}
	policies := diffPolicies(model.ThreadPredictor())
	for mi, cfg := range diffMachines() {
		rng := mathx.NewRNG(uint64(100 + mi))
		mixes := 1
		if cfg.NumCores() <= 8 {
			mixes = 4 // paper-sized runs take milliseconds
		}
		for k := 0; k < mixes*len(policies); k++ {
			p := policies[k%len(policies)]
			mix := genMix(rng, cfg.NumCores())
			diffCheck(t, cfg, p, mix, rng.Uint64())
		}
		if cfg.NumCores() == cpu.Config2x32B32M64S.NumCores() {
			seed := rng.Uint64()
			for _, p := range policies {
				diffCheck(t, cfg, p, oversubscribedMix, seed)
			}
		}
	}
}

// diffCheck runs mix at seed on cfg under p's optimised and reference
// builds and fails unless both give identical Results and traces.
func diffCheck(t *testing.T, cfg cpu.Config, p diffPolicy, mix string, seed uint64) {
	t.Helper()
	spec, err := workload.ResolveSpec(mix)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *task.Workload {
		w, err := spec.BuildFor(seed, cfg.AggregateCapacity())
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		return w
	}
	got, gotTrace := diffRun(t, cfg, p.optimised(), build())
	want, wantTrace := diffRun(t, cfg, p.reference(), build())
	if !reflect.DeepEqual(got, want) || gotTrace != wantTrace {
		t.Errorf("%s on %s, %s seed %d: optimised stages diverge from the full-scan reference (events %d vs %d, end %v vs %v, trace %.12s vs %.12s)",
			p.name, cfg.Name, mix, seed, got.Events, want.Events, got.EndTime, want.EndTime, gotTrace, wantTrace)
	}
}

// startedSelector returns sel started by a pipeline on a 2B2S machine, so
// its hint board is live; the machine never runs.
func startedSelector(t *testing.T, sel *SelectorStage) *SelectorStage {
	t.Helper()
	s, err := kernel.NewPipeline("critkey", nil, NewAllocator(false), sel, nil)
	if err != nil {
		t.Fatal(err)
	}
	app := &task.App{Name: "critkey"}
	app.Threads = []*task.Thread{{App: app, Name: "critkey", Program: task.Program{task.Compute{Work: 1}}}}
	m, err := kernel.NewMachine(cpu.Config2B2S, s, &task.Workload{Name: "critkey", Apps: []*task.App{app}}, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(m)
	return sel
}

// TestDifferentialCritKeyFold checks the selector's cached-key fold
// against the reference pointer comparator. Named rows pin the order's
// edge cases; then every ordered pair of a grid of keys (NaN and ±Inf in
// Crit and Pred, vruntime gaps at and just past ±fairnessWindow, each key
// twice so equal keys meet) and folds over generated sequences of them
// must pick the same thread both ways.
func TestDifferentialCritKeyFold(t *testing.T) {
	sel := startedSelector(t, NewSelector(0))
	ref := refSelector{sel}
	w := sel.fairnessWindow
	inf, nan := math.Inf(1), math.NaN()
	var ids int
	thread := func(k critKey) *task.Thread {
		th := &task.Thread{ID: ids, VRuntime: k.vr}
		ids++
		h := sel.pc.Hints().Get(th)
		h.Crit, h.Pred = k.crit, k.pred
		return th
	}
	key := func(th *task.Thread) critKey {
		h := sel.pc.Hints().Get(th)
		return critKey{th.VRuntime, h.Crit, h.Pred}
	}
	foldKeys := func(ths []*task.Thread) *task.Thread {
		var b critBest
		for _, th := range ths {
			sel.fold(&b, th)
		}
		return b.t
	}
	foldRef := func(ths []*task.Thread) *task.Thread {
		var best *task.Thread
		for _, th := range ths {
			if best == nil || ref.moreCritical(th, best) {
				best = th
			}
		}
		return best
	}

	third := w * 3 / 5
	for _, tc := range []struct {
		name string
		keys []critKey
		want int // index of the winner
	}{
		{"higher blame wins", []critKey{{0, 1, 1}, {0, 2, 1}}, 1},
		{"gap of exactly +window: blame decides", []critKey{{w, 2, 1}, {0, 1, 1}}, 0},
		{"gap past +window: lower vruntime wins", []critKey{{w + 1, 2, 1}, {0, 1, 1}}, 1},
		{"gap of exactly -window: blame decides", []critKey{{0, 1, 1}, {w, 2, 1}}, 1},
		{"gap past -window: the thread ahead loses", []critKey{{0, 1, 1}, {w + 1, 2, 1}}, 0},
		{"equal blame: higher prediction", []critKey{{0, 1, 1}, {0, 1, 2}}, 1},
		{"equal blame and prediction: lower vruntime", []critKey{{5, 1, 1}, {3, 1, 1}}, 1},
		{"equal keys keep the first", []critKey{{5, 1, 1}, {5, 1, 1}}, 0},
		{"NaN blame does not displace", []critKey{{0, 1, 1}, {0, nan, 9}}, 0},
		{"NaN blame is not displaced", []critKey{{0, nan, 1}, {0, 1, 9}}, 0},
		{"NaN blames skip prediction and vruntime", []critKey{{5, nan, 1}, {3, nan, 2}}, 0},
		{"+Inf blame wins", []critKey{{0, 1, 1}, {0, inf, 1}}, 1},
		{"-Inf blame loses", []critKey{{0, -inf, 1}, {0, 0, 1}}, 1},
		{"equal infinite blames: prediction decides", []critKey{{0, inf, 1}, {0, inf, 2}}, 1},
		{"NaN prediction does not displace", []critKey{{0, 1, 2}, {0, 1, nan}}, 0},
		{"NaN prediction is not displaced", []critKey{{0, 1, nan}, {0, 1, 2}}, 0},
		{"+Inf prediction wins", []critKey{{0, 1, 2}, {0, 1, inf}}, 1},
		{"window outranks infinite blame", []critKey{{0, -inf, nan}, {w + 1, inf, inf}}, 0},
		{"non-transitive: the visiting order decides (a, b, c)", []critKey{{0, 0, 1}, {third, 1, 1}, {2 * third, 2, 1}}, 2},
		{"non-transitive: the visiting order decides (c, a, b)", []critKey{{2 * third, 2, 1}, {0, 0, 1}, {third, 1, 1}}, 2},
	} {
		ths := make([]*task.Thread, len(tc.keys))
		for i, k := range tc.keys {
			ths[i] = thread(k)
		}
		want := ths[tc.want]
		if got := foldKeys(ths); got != want {
			t.Errorf("%s: key fold picked %+v, want %+v", tc.name, key(got), key(want))
		}
		if got := foldRef(ths); got != want {
			t.Errorf("%s: reference fold picked %+v, want %+v", tc.name, key(got), key(want))
		}
	}

	var grid []*task.Thread
	for copies := 0; copies < 2; copies++ {
		for _, vr := range []sim.Time{0, 1, w - 1, w, w + 1, -w, -w - 1} {
			for _, crit := range []float64{0, 1, nan, inf, -inf} {
				for _, pred := range []float64{1, 2, nan, inf, -inf} {
					grid = append(grid, thread(critKey{10*w + vr, crit, pred}))
				}
			}
		}
	}
	for _, a := range grid {
		for _, b := range grid {
			if got, want := sel.beats(key(a), key(b)), ref.moreCritical(a, b); got != want {
				t.Fatalf("beats(%+v, %+v) = %v, moreCritical = %v", key(a), key(b), got, want)
			}
		}
	}
	rng := mathx.NewRNG(7)
	seq := make([]*task.Thread, 0, 8)
	for i := 0; i < 5000; i++ {
		seq = seq[:0]
		for n := 1 + rng.IntN(8); len(seq) < n; {
			seq = append(seq, grid[rng.IntN(len(grid))])
		}
		if got, want := foldKeys(seq), foldRef(seq); got != want {
			t.Fatalf("fold over %d keys picked %+v, reference %+v", len(seq), key(got), key(want))
		}
	}
}
