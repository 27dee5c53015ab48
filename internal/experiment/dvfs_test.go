package experiment

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/workload"
)

func runTriGear(t *testing.T, r *Runner, kind string) *kernel.Result {
	t.Helper()
	comp, ok := workload.CompositionByIndex("Rand-7")
	if !ok {
		t.Fatal("Rand-7 missing")
	}
	w, err := comp.Spec().Build(r.Seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.runPolicy(context.Background(), cpu.Config2B2M2S, kind, w, nil)
	if err != nil {
		t.Fatalf("%s on %s: %v", kind, cpu.Config2B2M2S.Name, err)
	}
	return res
}

// The headline tri-gear claim: COLAB's native governor must beat
// fixed-frequency COLAB on energy-delay product on the 2B2M2S machine, and
// it must do so by actually using the ladders (sub-nominal residency).
func TestCOLABGovernorLowersEDP(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	fixed := runTriGear(t, r, SchedCOLAB)
	dvfs := runTriGear(t, r, SchedCOLABDVFS)
	fe, de := fixed.EnergyDelayProduct(), dvfs.EnergyDelayProduct()
	t.Logf("EDP: fixed=%.4f Js, governor=%.4f Js (energy %.3f -> %.3f J)",
		fe, de, fixed.TotalEnergyJ(), dvfs.TotalEnergyJ())
	if de > fe {
		t.Errorf("governor EDP %.4f worse than fixed-frequency %.4f", de, fe)
	}
	if f := nominalResidency(fixed); f != 1 {
		t.Errorf("fixed-frequency run shows sub-nominal residency %.3f", f)
	}
	if f := nominalResidency(dvfs); f >= 1 {
		t.Errorf("governor never engaged: nominal residency %.3f", f)
	}
}

// On a machine the tiered model was not trained for (the two-tier paper
// shape), colab-dvfs must disable per-tier predictions and behave exactly
// like fixed-frequency COLAB — wrong-palette tier indices would otherwise
// clamp big-core predictions to the medium tier's envelope.
func TestCOLABDVFSFallsBackOffPalette(t *testing.T) {
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := workload.CompositionByIndex("Rand-7")
	if !ok {
		t.Fatal("Rand-7 missing")
	}
	turnarounds := func(kind string) []float64 {
		w, err := comp.Spec().Build(r.Seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.runPolicy(context.Background(), cpu.Config2B2S, kind, w, nil)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		var out []float64
		for _, a := range res.Apps {
			out = append(out, float64(a.Turnaround))
		}
		return out
	}
	fixed, dvfs := turnarounds(SchedCOLAB), turnarounds(SchedCOLABDVFS)
	for i := range fixed {
		if fixed[i] != dvfs[i] {
			t.Fatalf("app %d turnaround diverges on 2B2S: colab %v vs colab-dvfs %v", i, fixed[i], dvfs[i])
		}
	}
}

// The OPP sweep renders one row per ladder step plus the governor, and
// pinning every core low must cost less energy than nominal (the tradeoff
// the governor navigates).
func TestOPPSweepTable(t *testing.T) {
	if testing.Short() {
		t.Skip("OPP sweep is not -short")
	}
	r, err := NewRunner(1)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := r.OPPSweepTable()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	if len(tbl.Rows) != 4 {
		t.Fatalf("want 3 pinned rows + governor, got %d:\n%s", len(tbl.Rows), out)
	}
	if !strings.Contains(out, "colab-dvfs") || !strings.Contains(out, "@nominal") {
		t.Fatalf("sweep table missing variants:\n%s", out)
	}
	var low, nom float64
	if _, err := fmt.Sscanf(tbl.Rows[0][3], "%f", &low); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscanf(tbl.Rows[2][3], "%f", &nom); err != nil {
		t.Fatal(err)
	}
	if low >= nom {
		t.Errorf("energy pinned low (%.3f J) not below nominal (%.3f J)", low, nom)
	}
	t.Log("\n" + out)
}
