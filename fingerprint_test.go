package colab_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	colab "colab"
	"colab/internal/kernel"
)

const goldenFingerprintsPath = "testdata/golden_fingerprints.txt"

// openBigMix is bigMix's open-system twin: the ferret instances arrive as
// a Poisson stream while the rest start at time zero.
const openBigMix = "bodytrack:32+radix:32+fft:32+ferret:8*4@arrive=poisson(10ms)"

// fingerprintPalettes are the 128- and 256-core palettes the paper-machine
// golden corpus does not reach.
var fingerprintPalettes = []colab.Config{
	colab.Config32B32M64S, colab.Config2x32B32M64S, colab.Config4x16B16S, colab.Config64B64S,
}

// builtinPolicies lists every built-in policy: Policies() also returns
// names other tests of this package register.
func builtinPolicies() []string {
	var out []string
	for _, name := range colab.Policies() {
		if _, ok := colab.CanonicalComposition(name); ok {
			out = append(out, name)
		}
	}
	return out
}

// fingerprint runs mix on cfg under policy at seed 1 and renders one line:
// the SHA-256 of the run's full trace (as colab-sim -trace prints it) and
// of its Result's JSON, plus the event count for a readable diff.
func fingerprint(t *testing.T, model *colab.SpeedupModel, cfg colab.Config, mix, policy string) string {
	t.Helper()
	w, err := colab.BuildWorkload(mix, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := colab.NewPolicy(policy, colab.PolicyContext{Speedup: model.ThreadPredictor()})
	if err != nil {
		t.Fatal(err)
	}
	th := sha256.New()
	buf := bufio.NewWriter(th)
	res, err := colab.RunTraced(cfg, s, w, kernel.WriteTracer(buf))
	if err != nil {
		t.Fatalf("%s %s %s: %v", cfg.Name, mix, policy, err)
	}
	if err := buf.Flush(); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s %s %s events=%d trace=%x result=%x", cfg.Name, mix, policy, res.Events, th.Sum(nil), sha256.Sum256(js))
}

// TestBigPaletteFingerprints pins every built-in policy's schedule on the
// big palettes: the trace and Result of each run, hashed, for the
// closed, oversubscribed and open big mixes. The paper-machine golden
// corpus never leaves 8 cores, and the reruns and differential tests on
// these palettes pass a kernel change that moves every schedule alike;
// this file does not. Regenerate with GOLDEN_WRITE=1 only for an
// intentional behaviour change.
func TestBigPaletteFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every built-in policy on four 128- and 256-core palettes; not -short")
	}
	model, err := colab.TrainSpeedupModel()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, cfg := range fingerprintPalettes {
		for _, mix := range []string{bigMix, oversubscribedMix, openBigMix} {
			for _, policy := range builtinPolicies() {
				b.WriteString(fingerprint(t, model, cfg, mix, policy))
				b.WriteByte('\n')
			}
		}
	}
	got := b.String()
	if os.Getenv("GOLDEN_WRITE") != "" {
		if err := os.WriteFile(goldenFingerprintsPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFingerprintsPath)
	if err != nil {
		t.Fatalf("golden fingerprint file missing: %v", err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	if len(lines) != len(want) {
		t.Fatalf("golden fingerprint file has %d lines, rendered %d", len(want), len(lines))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d drifted:\n  golden: %s\n  got:    %s", i+1, want[i], lines[i])
		}
	}
}
