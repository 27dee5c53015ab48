package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"colab/internal/sim"
)

func TestParseSpecForms(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
		apps      int
	}{
		{"ferret:4", "ferret:4", 1},
		{"ferret", "ferret:4", 1}, // DefaultThreads
		{"water_nsquared", "water_nsquared:2", 1},
		{"ferret:4+bodytrack:8", "ferret:4+bodytrack:8", 2},
		{" ferret:4 + bodytrack:8 ", "ferret:4+bodytrack:8", 2},
		{"Sync-2", "Sync-2", 2},
		{"Sync-2@seed=7", "Sync-2@seed=7", 2},
		{"ferret:2*3", "ferret:2*3", 3},
		{"ferret*2", "ferret:4*2", 2},
		{"ferret:2*8@arrive=poisson(5ms)", "ferret:2*8@arrive=poisson(5ms)", 8},
		{"dedup:4*3@arrive=trace(0,10ms,25ms)", "dedup:4*3@arrive=trace(0ns,10ms,25ms)", 3},
		{"ferret:4@arrive=10ms", "ferret:4@arrive=10ms", 1},
		{"ferret:4@arrive=fixed(10ms)", "ferret:4@arrive=10ms", 1},
		{"ferret:4@arrive=poisson(5ms)", "ferret:4@arrive=poisson(5ms)", 1},
		{"ferret:4@arrive=uniform(0,50ms)", "ferret:4@arrive=uniform(0ns,50ms)", 1},
		{"dedup:4@arrive=trace(0,10ms,25ms)", "dedup:4@arrive=trace(0ns,10ms,25ms)", 1},
		{"Sync-1@seed=3@arrive=2ms+ferret:6", "Sync-1@seed=3@arrive=2ms+ferret:6", 3},
		{"radix:2@arrive=1500us", "radix:2@arrive=1500us", 1},
		{"radix:2@arrive=1.5ms", "radix:2@arrive=1500us", 1},
		{"radix:2@arrive=2s", "radix:2@arrive=2s", 1},
		// Load generators and class labels are spec-global: written on any
		// term, rendered once at the end.
		{"ferret:4@load=util(0.7)", "ferret:4@load=util(0.7)", 1},
		{"ferret:4@load=util(0.7)+radix:2", "ferret:4+radix:2@load=util(0.7)", 2},
		{"ferret:4+radix:2@load=closed(think=5ms)", "ferret:4+radix:2@load=closed(think=5ms)", 2},
		{"ferret:2*4@arrive=poisson(5ms)@load=diurnal(40ms,3)", "ferret:2*4@arrive=poisson(5ms)@load=diurnal(40ms,3)", 4},
		{"ferret:2*4@arrive=poisson(5ms)@load=burst(16ms,0.25,4)@class=interactive",
			"ferret:2*4@arrive=poisson(5ms)@load=burst(16ms,0.25,4)@class=interactive", 4},
		{"ferret:4@class=web", "ferret:4@class=web", 1},
		{"ferret:4@class=web+radix:2", "ferret:4+radix:2@class=web", 2},
		// A registered scenario carrying its own load/class inlines with
		// both propagated (collapsing to the name would re-modify it).
		{"interactive-burst", "dedup:2*4@seed=202@arrive=poisson(3ms)@load=burst(16ms,0.25,4)@class=interactive", 4},
	}
	for _, c := range cases {
		spec, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if spec.Canonical() != c.canonical {
			t.Errorf("ParseSpec(%q).Canonical() = %q, want %q", c.in, spec.Canonical(), c.canonical)
		}
		if spec.Name != c.canonical {
			t.Errorf("ParseSpec(%q).Name = %q, want canonical %q", c.in, spec.Name, c.canonical)
		}
		if got := spec.NumApps(); got != c.apps {
			t.Errorf("ParseSpec(%q).NumApps() = %d, want %d", c.in, got, c.apps)
		}
		// Round-trip stability: the canonical form reparses to itself.
		again, err := ParseSpec(spec.Canonical())
		if err != nil {
			t.Errorf("reparse of %q failed: %v", spec.Canonical(), err)
			continue
		}
		if again.Canonical() != spec.Canonical() {
			t.Errorf("canonical form not stable: %q -> %q", spec.Canonical(), again.Canonical())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct{ in, wantSub string }{
		{"", "empty"},
		{"nosuchthing:4", "benchmarks:"},
		{"nosuchthing", "scenarios:"},
		{"ferret:zero", "thread count"},
		{"ferret:0", "out of range"},
		{"ferret:99999999", "out of range"},
		{"Sync-2:4", "no thread count"},
		{"Sync-2*2", "no replication count"},
		{"ferret:2*zero", "replication count"},
		{"ferret:2*0", "out of range"},
		{"ferret:2*9999", "out of range"},
		{"ferret:4@", "modifier"},
		{"ferret:4@bogus=1", "unknown modifier"},
		{"ferret:4@seed=abc", "bad seed"},
		{"ferret:4@seed=1@seed=2", "twice"},
		{"ferret:4@arrive=1ms@arrive=2ms", "twice"},
		{"ferret:4@arrive=sometimes", "bad arrival"},
		{"ferret:4@arrive=uniform(5ms)", "uniform"},
		{"ferret:4@arrive=uniform(9ms,2ms)", "inverted"},
		{"ferret:4@arrive=poisson(0)", "positive"},
		{"ferret:4@arrive=poisson(-5ms)", "duration"},
		{"ferret:4@arrive=trace()", "at least one"},
		{"ferret:4@arrive=uniform(1ms", "unbalanced"},
		{"ferret:4@arrive=1ms)", "unbalanced"},
		{"+ferret:4", "empty term"},
		{"ferret:4@load=util(0.7)@load=util(0.8)", "twice"},
		{"ferret:4@load=util(0.7)+radix:2@load=util(0.8)", "twice"},
		{"ferret:4@class=a+radix:2@class=b", "twice"},
		{"ferret:4@load=bogus", "bad load"},
		{"ferret:4@load=util(2)", "out of range"},
		{"ferret:4@load=closed(5ms)", "think="},
		{"ferret:4@class=bad~label", "grammar-safe"},
		{"ferret:4@arrive=poisson(5ms)@load=util(0.5)", "closed terms"},
		{"ferret:4@arrive=poisson(5ms)+radix:2@load=closed(think=1ms)", "closed terms"},
		{"interactive-burst@seed=1", "carries its own modifiers"},
		{"ferret:4@arrive=tracefile()", "tracefile takes"},
		{"ferret:4@arrive=tracefile(/no/such/file)", "no such file"},
		{"ferret:4@arrive=tracefile(bad path)", "grammar-reserved"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.in)
		if err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error containing %q", c.in, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseSpec(%q) error %q misses %q", c.in, err, c.wantSub)
		}
	}
}

func TestDurationParsing(t *testing.T) {
	cases := []struct {
		in   string
		want sim.Time
	}{
		{"0", 0},
		{"1500", 1500},
		{"1500ns", 1500},
		{"2us", 2 * sim.Microsecond},
		{"2µs", 2 * sim.Microsecond},
		{"10ms", 10 * sim.Millisecond},
		{"1.5ms", 1500 * sim.Microsecond},
		{"2s", 2 * sim.Second},
	}
	for _, c := range cases {
		got, err := parseDur(c.in)
		if err != nil {
			t.Errorf("parseDur(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseDur(%q) = %d, want %d", c.in, got, c.want)
		}
		if back, err := parseDur(formatDur(got)); err != nil || back != got {
			t.Errorf("formatDur round-trip broke: %q -> %q -> %v (%v)", c.in, formatDur(got), back, err)
		}
	}
	for _, bad := range []string{"", "ms", "-1ms", "1e300s", "nan", "inf", "+inf"} {
		if _, err := parseDur(bad); err == nil {
			t.Errorf("parseDur(%q) succeeded", bad)
		}
	}
}

// TestTracefileSpec exercises arrive=tracefile end to end: parse,
// digest-pinned canonical form, round-trip, build, TraceFiles reporting,
// and the changed-file rejection.
func TestTracefileSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arrivals.trace")
	if err := os.WriteFile(path, []byte("# recorded burst\n0\n10ms\n25ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(fmt.Sprintf("dedup:2*3@arrive=tracefile(%s)", path))
	if err != nil {
		t.Fatal(err)
	}
	digest := spec.Terms[0].Arrival.Digest
	if len(digest) != 16 {
		t.Fatalf("digest %q: want 16 hex digits", digest)
	}
	want := fmt.Sprintf("dedup:2*3@arrive=tracefile(%s,sha256=%s)", path, digest)
	if got := spec.Canonical(); got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
	if tf := spec.TraceFiles(); len(tf) != 1 || !strings.Contains(tf[0], path) {
		t.Fatalf("TraceFiles() = %v, want the tracefile term", tf)
	}
	// The canonical form re-parses to itself while the file is unchanged.
	again, err := ParseSpec(spec.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if again.Canonical() != spec.Canonical() {
		t.Fatalf("canonical not stable: %q -> %q", spec.Canonical(), again.Canonical())
	}
	// Builds replay the times in order, for any build seed.
	w, err := spec.Build(42)
	if err != nil {
		t.Fatal(err)
	}
	wantTimes := []sim.Time{0, 10 * sim.Millisecond, 25 * sim.Millisecond}
	for i, app := range w.Apps {
		if app.Arrival != wantTimes[i] {
			t.Errorf("app %d arrival = %d, want %d", i, app.Arrival, wantTimes[i])
		}
	}
	// A count mismatch fails the build, exactly like inline trace(...).
	mismatch, err := ParseSpec(fmt.Sprintf("dedup:2*4@arrive=tracefile(%s)", path))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mismatch.Build(1); err == nil || !strings.Contains(err.Error(), "3 times for 4 applications") {
		t.Fatalf("count mismatch build error = %v", err)
	}
	// Changing the file invalidates the pinned canonical form.
	if err := os.WriteFile(path, []byte("0\n10ms\n99ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec(spec.Canonical()); err == nil || !strings.Contains(err.Error(), "changed since") {
		t.Fatalf("changed-file reparse error = %v", err)
	}
}

// FuzzParseSpec fuzzes the scenario-grammar parser: it must never panic,
// and any accepted input must have a stable canonical form (parse →
// render → parse is a fixed point).
func FuzzParseSpec(f *testing.F) {
	for _, c := range Compositions() {
		f.Add(c.Index)
	}
	for _, b := range All() {
		f.Add(b.Name)
		f.Add(b.Name + ":4")
	}
	for _, s := range []string{
		"ferret:4+bodytrack:8",
		"Sync-2@seed=7",
		"ferret:4@arrive=poisson(5ms)",
		"ferret:4@arrive=fixed(10ms)",
		"ferret:4@arrive=uniform(0,50ms)",
		"ferret:2*8@arrive=poisson(5ms)",
		"dedup:4*3@arrive=trace(0,10ms,25ms)",
		"ferret:2*0",
		"Sync-1@seed=3@arrive=2ms+ferret:6",
		"radix:2@arrive=1.5ms",
		"water_nsquared+fmm@seed=9",
		"ferret:4@arrive=uniform(1ms",
		"@seed=1",
		"ferret:4@@",
		"ferret:4@arrive=tracefile(testdata/arrivals.trace)",
		"ferret:4@arrive=tracefile(x,sha256=0123456789abcdef)",
		"ferret:4@load=util(0.7)",
		"ferret:4+radix:2@load=closed(think=5ms)",
		"ferret:2*4@arrive=poisson(5ms)@load=diurnal(40ms,3)@class=interactive",
		"ferret:2*4@arrive=poisson(5ms)@load=burst(16ms,0.25,4)",
		"ferret:4@class=web",
		"datacenter-day",
		"interactive-burst",
		"batch-backfill",
		"ferret:4@load=util(2)",
		"ferret:4@arrive=poisson(5ms)@load=util(0.5)",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		canon := spec.Canonical()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, in, err)
		}
		if got := again.Canonical(); got != canon {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", in, canon, got)
		}
		if spec.NumApps() != again.NumApps() {
			t.Fatalf("app count drifted through canonicalisation: %d vs %d", spec.NumApps(), again.NumApps())
		}
	})
}
