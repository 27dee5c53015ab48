package experiment

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/workload"
)

func specFor(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, err := workload.ResolveSpec(name)
	if err != nil {
		t.Fatalf("ResolveSpec(%q): %v", name, err)
	}
	return spec
}

func TestCellKeyRoundTripAndStability(t *testing.T) {
	specs := []string{
		"Sync-2",
		"ferret:4+bodytrack:8",
		"Sync-2@seed=7",
		"ferret:4@arrive=poisson(5ms)",
		"ferret*3@arrive=uniform(0ns,40ms)",
	}
	for _, name := range specs {
		k := NewCellKey(specFor(t, name), SchedCOLAB, cpu.Config2B2S, 3, kernel.Params{})
		s := k.String()
		back, err := ParseCellKey(s)
		if err != nil {
			t.Fatalf("ParseCellKey(%q): %v", s, err)
		}
		if back != k {
			t.Errorf("round trip changed key: %+v -> %+v", k, back)
		}
		// Stable: deriving the key again renders identically.
		if again := NewCellKey(specFor(t, name), SchedCOLAB, cpu.Config2B2S, 3, kernel.Params{}).String(); again != s {
			t.Errorf("key not stable across derivations: %q vs %q", s, again)
		}
	}
}

// Every spelling of one cell must share one key: scenario grammar
// spellings canonicalise, policy composition spellings canonicalise, and
// zero params hash like their spelled-out defaults.
func TestCellKeyCanonicalSharing(t *testing.T) {
	base := NewCellKey(specFor(t, "ferret:4+bodytrack:8"), "wash.labeler", cpu.Config2B2S, 1, kernel.Params{})
	grammar := NewCellKey(specFor(t, " ferret:4 + bodytrack:8 "), "linux.selector+wash.labeler+linux.allocator", cpu.Config2B2S, 1, kernel.Params{})
	if base != grammar {
		t.Errorf("equivalent spellings produced distinct keys:\n%s\n%s", base, grammar)
	}
	spelled := kernel.Params{
		ContextSwitchCost: kernel.DefaultContextSwitchCost,
		MigrationCost:     kernel.DefaultMigrationCost,
		MaxEvents:         kernel.DefaultMaxEvents,
	}
	if ParamsDigest(kernel.Params{}) != ParamsDigest(spelled) {
		t.Error("zero params and spelled-out defaults must share a digest")
	}
	if ParamsDigest(kernel.Params{}) == ParamsDigest(kernel.Params{MigrationCost: 1}) {
		t.Error("different params must not share a digest")
	}
}

// Distinct coordinates must produce distinct keys, including same-named
// but structurally different machines.
func TestCellKeyDiscriminates(t *testing.T) {
	spec := specFor(t, "Sync-2")
	base := NewCellKey(spec, SchedLinux, cpu.Config2B2S, 1, kernel.Params{})
	renamed := cpu.Config2B4S
	renamed.Name = cpu.Config2B2S.Name
	for what, other := range map[string]CellKey{
		"policy":  NewCellKey(spec, SchedWASH, cpu.Config2B2S, 1, kernel.Params{}),
		"seed":    NewCellKey(spec, SchedLinux, cpu.Config2B2S, 2, kernel.Params{}),
		"machine": NewCellKey(spec, SchedLinux, renamed, 1, kernel.Params{}),
		"params":  NewCellKey(spec, SchedLinux, cpu.Config2B2S, 1, kernel.Params{MaxEvents: 7}),
	} {
		if other == base {
			t.Errorf("%s change did not change the key: %s", what, base)
		}
	}
}

func TestCellKeyEscaping(t *testing.T) {
	k := CellKey{Scenario: "a|b%7C", Policy: "p%", Machine: "m", Seed: 9, Params: "00"}
	back, err := ParseCellKey(k.String())
	if err != nil {
		t.Fatalf("ParseCellKey(%q): %v", k.String(), err)
	}
	if back != k {
		t.Errorf("escaped round trip changed key: %+v -> %+v", k, back)
	}
	if _, err := ParseCellKey("only|three|fields"); err == nil {
		t.Error("short key must not parse")
	}
	if _, err := ParseCellKey("a|b|c|notanumber|e"); err == nil {
		t.Error("non-numeric seed must not parse")
	}
}

// The baseline key is shared by arrival variants and grammar spellings of
// one scenario — that sharing is what dedups baselines across shards.
func TestBaselineKeySharedAcrossArrivalVariants(t *testing.T) {
	p := kernel.Params{}
	closed := BaselineKey(specFor(t, "Sync-2"), 0, 4, 1, p)
	open := BaselineKey(specFor(t, "Sync-2@arrive=poisson(5ms)"), 0, 4, 1, p)
	if closed != open {
		t.Errorf("arrival variant changed the baseline key:\n%s\n%s", closed, open)
	}
	if other := BaselineKey(specFor(t, "Sync-2"), 1, 4, 1, p); other == closed {
		t.Error("app index must discriminate baseline keys")
	}
	if !strings.Contains(closed, "|app=0") {
		t.Errorf("baseline key misses app suffix: %s", closed)
	}
}

// A baseline key is the CellKey of the closed scenario under linux on the
// symmetric big machine, suffixed with the app index; the baselines a
// runner files in its cache are keyed by the same strings.
func TestBaselineKeyFormat(t *testing.T) {
	p := kernel.Params{}
	spec := specFor(t, "Sync-2@arrive=poisson(5ms)")
	r := &Runner{Seed: 3, Params: p, cache: NewCache()}
	closed, err := spec.BuildClosed(r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.specBaselines(context.Background(), spec, closed, cpu.Config2B4S); err != nil {
		t.Fatal(err)
	}
	filed := r.cache.baselines.items
	if len(filed) != spec.NumApps() {
		t.Fatalf("%d keys for %d apps", len(filed), spec.NumApps())
	}
	for i := 0; i < spec.NumApps(); i++ {
		want := fmt.Sprintf("%s|app=%d", NewCellKey(spec.Closed(), SchedLinux, cpu.NewSymmetric(cpu.Big, 6), 3, p), i)
		if _, ok := filed[want]; !ok || BaselineKey(spec, i, 6, 3, p) != want {
			t.Errorf("app %d: filed %v, BaselineKey %q, want %q", i, ok, BaselineKey(spec, i, 6, 3, p), want)
		}
	}
}

// FuzzParseCellKey feeds arbitrary strings to the parser that decodes keys
// arriving from outside the process (fleet wire cells, journals, serve
// cache lookups). The parser must never panic, every accepted key must
// survive a String round trip unchanged, and every rejection must quote
// the input.
func FuzzParseCellKey(f *testing.F) {
	for _, name := range []string{"Sync-2", "ferret:4+bodytrack:8", "Sync-2@seed=7",
		"ferret:4@arrive=poisson(5ms)", "ferret*3@arrive=uniform(0ns,40ms)"} {
		spec, err := workload.ResolveSpec(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(NewCellKey(spec, SchedCOLAB, cpu.Config2B2S, 3, kernel.Params{}).String())
	}
	f.Add(CellKey{Scenario: "a|b%7C", Policy: "p%", Machine: "m", Seed: 9, Params: "00"}.String())
	f.Add("only|three|fields")
	f.Add("a|b|c|notanumber|e")
	f.Add("a%7c|b%2|c|1|%")
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseCellKey(s)
		if err != nil {
			if !strings.Contains(err.Error(), strconv.Quote(s)) {
				t.Errorf("rejection of %q does not quote it: %v", s, err)
			}
			return
		}
		back, err := ParseCellKey(k.String())
		if err != nil {
			t.Fatalf("accepted %q, but its rendering %q does not parse: %v", s, k.String(), err)
		}
		if back != k {
			t.Errorf("round trip of %q changed the key: %+v -> %+v", s, k, back)
		}
	})
}
