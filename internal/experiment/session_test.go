package experiment

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/workload"
)

func compByIndex(t *testing.T, idx string) workload.Composition {
	t.Helper()
	comp, ok := workload.CompositionByIndex(idx)
	if !ok {
		t.Fatalf("unknown composition %s", idx)
	}
	return comp
}

// TestBatchMatchesGoldenCorpus is the session-API acceptance oracle: the
// Batch engine must reproduce every mix cell of the legacy golden corpus
// (generated by the pre-session Runner) to the last bit, at full
// parallelism.
func TestBatchMatchesGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus comparison is not -short")
	}
	raw, err := os.ReadFile("testdata/golden_paper_configs.txt")
	if err != nil {
		t.Fatalf("golden corpus missing: %v", err)
	}
	var want []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "mix|") {
			want = append(want, line)
		}
	}
	if len(want) == 0 {
		t.Fatal("no mix cells in the golden corpus")
	}

	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var got []string
	collect := func(cells []BatchCell) {
		for _, c := range cells {
			got = append(got, fmt.Sprintf("mix|%s|%s|%s HANTT=%s HSTP=%s",
				c.Key.Workload, c.Key.Config, c.Key.Policy, ff(c.Score.HANTT), ff(c.Score.HSTP)))
		}
	}

	var mixes []workload.Spec
	for _, idx := range []string{"Sync-2", "NSync-2", "Comm-2", "Comp-2", "Rand-7"} {
		mixes = append(mixes, compByIndex(t, idx).Spec())
	}
	cache := NewCache() // shares the memoised baselines, like one session would
	main := &Batch{
		Scenarios: mixes,
		Configs:   cpu.EvaluatedConfigs(),
		Policies:  []string{SchedLinux, SchedWASH, SchedCOLAB, SchedGTS, SchedEAS},
		Seeds:     []uint64{1},
		Cache:     cache,
	}
	cells, err := main.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	collect(cells)

	ablations := &Batch{
		Scenarios: []workload.Spec{compByIndex(t, "Sync-2").Spec()},
		Configs:   []cpu.Config{cpu.Config2B2S},
		Policies: []string{SchedCOLABNoScale, SchedCOLABLocal, SchedCOLABFlat,
			SchedCOLABNoPull, SchedCOLABOracle},
		Seeds: []uint64{1},
		Cache: cache,
	}
	cells, err = ablations.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	collect(cells)

	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("session produced %d mix cells, corpus has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("cell %d drifted:\n  golden:  %s\n  session: %s", i, want[i], got[i])
		}
	}
}

// TestBatchValidation covers the spec errors.
func TestBatchValidation(t *testing.T) {
	comp := compByIndex(t, "Sync-1")
	base := func() *Batch {
		return &Batch{
			Scenarios: []workload.Spec{comp.Spec()},
			Configs:   []cpu.Config{cpu.Config2B2S},
			Policies:  []string{SchedLinux},
			Seeds:     []uint64{1},
		}
	}
	for name, breakIt := range map[string]func(*Batch){
		"no workloads": func(b *Batch) { b.Scenarios = nil },
		"no configs":   func(b *Batch) { b.Configs = nil },
		"no policies":  func(b *Batch) { b.Policies = nil },
		"no seeds":     func(b *Batch) { b.Seeds = nil },
	} {
		b := base()
		breakIt(b)
		if _, err := b.Run(context.Background()); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
	b := base()
	b.Policies = []string{"no-such-policy"}
	_, err := b.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "no-such-policy") ||
		!strings.Contains(err.Error(), SchedCOLABDVFS) {
		t.Errorf("unknown policy error must list the registry, got: %v", err)
	}
}

// TestBatchTracerKeysCells checks traced events carry the right cell key
// and that tracing does not change scores.
func TestBatchTracerKeysCells(t *testing.T) {
	comp := compByIndex(t, "Comp-1")
	plain := &Batch{
		Scenarios: []workload.Spec{comp.Spec()},
		Configs:   []cpu.Config{cpu.Config2B2S},
		Policies:  []string{SchedLinux},
		Seeds:     []uint64{1},
	}
	ref, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	orders := map[bool]int{}
	traced := &Batch{
		Scenarios: []workload.Spec{comp.Spec()},
		Configs:   []cpu.Config{cpu.Config2B2S},
		Policies:  []string{SchedLinux},
		Seeds:     []uint64{1},
		Workers:   8, // tracer must force sequential execution anyway
		Tracer: func(key BatchKey, bigFirst bool, _ kernel.TraceEvent) {
			events++
			orders[bigFirst]++
			want := BatchKey{Workload: "Comp-1", Config: "2B2S", Policy: SchedLinux, Seed: 1}
			if key != want {
				t.Fatalf("traced event carries key %+v, want %+v", key, want)
			}
		},
	}
	got, err := traced.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("tracer saw no events")
	}
	if orders[true] == 0 || orders[false] == 0 {
		t.Fatalf("tracer must see both core orders, got %v", orders)
	}
	if got[0].Score != ref[0].Score {
		t.Errorf("tracing changed the score: %v vs %v", got[0].Score, ref[0].Score)
	}
}

// Two user-built machines can generate the same config name: the batch
// must reject the ambiguity (cells are identified by name), and once
// renamed, the memo cache must key on machine content so the materially
// different machines get separately simulated scores.
func TestBatchDistinguishesSameNamedConfigs(t *testing.T) {
	comp := compByIndex(t, "Comp-1")
	stock := cpu.NewTieredConfig(cpu.DefaultTiers(), []int{2, 2}, true)
	hot := cpu.DefaultTiers()
	hot[1].FreqMHz *= 2 // twice the big clock: must show in the scores
	hot[1].MaxSpeedup *= 2
	boosted := cpu.NewTieredConfig(hot, []int{2, 2}, true)
	if stock.Name != boosted.Name {
		t.Fatalf("test premise broken: names differ (%s vs %s)", stock.Name, boosted.Name)
	}
	b := &Batch{
		Scenarios: []workload.Spec{comp.Spec()},
		Configs:   []cpu.Config{stock, boosted},
		Policies:  []string{SchedLinux},
		Seeds:     []uint64{1},
	}
	if _, err := b.Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "duplicate machine name") {
		t.Fatalf("same-named distinct machines must be rejected, got %v", err)
	}

	boosted.Name = "2B2S-hot"
	b.Configs = []cpu.Config{stock, boosted}
	cells, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	if cells[0].Score == cells[1].Score {
		t.Fatalf("different machines share a score: %v", cells[0].Score)
	}
}
