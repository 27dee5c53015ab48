package perfmodel

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"colab/internal/cpu"
)

const goldenTrainingPath = "testdata/golden_training.txt"

// writeSamples renders one line per sample: the set name, the bench, and
// the IEEE-754 bits of the speedup and of every counter.
func writeSamples(b *strings.Builder, set string, samples []Sample) {
	fmt.Fprintf(b, "%s samples=%d\n", set, len(samples))
	for _, s := range samples {
		fmt.Fprintf(b, "%s %s speedup=%016x ctr=", set, s.Bench, math.Float64bits(s.Speedup))
		for i, c := range s.Counters {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(b, "%016x", math.Float64bits(c))
		}
		b.WriteByte('\n')
	}
}

// writeModel renders a fitted model: its selected counters, the bits of
// its intercept and coefficients, and its fit statistics.
func writeModel(b *strings.Builder, name string, m *Model) {
	fmt.Fprintf(b, "%s samples=%d features=%v intercept=%016x coef=", name, m.Samples, m.Features, math.Float64bits(m.Reg.Intercept))
	for i, c := range m.Reg.Coef {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "%016x", math.Float64bits(c))
	}
	fmt.Fprintf(b, " r2=%016x mae=%016x\n", math.Float64bits(m.R2), math.Float64bits(m.MAE))
}

// goldenTraining renders the default two-tier training set, the tri-gear
// per-tier training sets and the models TrainDefault and TrainTiered fit.
func goldenTraining(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	samples, err := CollectSamples(CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writeSamples(&b, "default", samples)
	tiers := cpu.TriGearTiers()
	tiered, err := CollectTieredSamples(tiers, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(tiers); k++ {
		writeSamples(&b, "trigear-"+tiers[k].Name, tiered[k])
	}
	m, err := TrainDefault()
	if err != nil {
		t.Fatal(err)
	}
	writeModel(&b, "model-default", m)
	tm, err := TrainTiered(tiers, CollectOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < tm.NumTiers(); k++ {
		writeModel(&b, "model-trigear-"+tm.Tiers[k].Name, tm.Models[k])
	}
	return b.String()
}

// TestTrainingUnchanged pins the training sets and fitted models bit for
// bit, so a change to how training machines are built or run cannot move
// a sample or a coefficient unnoticed. Regenerate with GOLDEN_WRITE=1 only
// for an intentional behaviour change.
func TestTrainingUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("symmetric training runs are not -short friendly")
	}
	got := goldenTraining(t)
	if os.Getenv("GOLDEN_WRITE") != "" {
		if err := os.WriteFile(goldenTrainingPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenTrainingPath)
	if err != nil {
		t.Fatalf("golden training file missing: %v", err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	if len(lines) != len(want) {
		t.Fatalf("golden training file has %d lines, rendered %d", len(want), len(lines))
	}
	bad := 0
	for i := range want {
		if lines[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d drifted:\n  golden: %s\n  got:    %s", i+1, want[i], lines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d lines drifted in all", bad)
	}
}
