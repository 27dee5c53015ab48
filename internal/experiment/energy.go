package experiment

import (
	"context"
	"fmt"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/workload"
)

// EnergyTable is the energy extension (DESIGN.md non-goal in the paper,
// provided here as an extra): it runs one representative workload per class
// on every config under all paper schedulers plus GTS and reports total
// energy and energy-delay product, normalised to Linux.
func (r *Runner) EnergyTable() (*Table, error) {
	reps := []string{"Sync-2", "NSync-2", "Comm-2", "Comp-2", "Rand-7"}
	kinds := []string{SchedLinux, SchedWASH, SchedCOLAB, SchedGTS, SchedEAS}
	t := &Table{
		Title:  "Energy extension: total energy and EDP vs Linux (geomean over representative workloads)",
		Header: []string{"config", "sched", "energy vs linux", "EDP vs linux"},
	}
	for _, cfg := range cpu.EvaluatedConfigs() {
		ref := map[string][2]float64{} // workload -> {energy, edp} under linux
		for _, kind := range kinds {
			var eRatios, edpRatios []float64
			for _, idx := range reps {
				comp, ok := workload.CompositionByIndex(idx)
				if !ok {
					return nil, fmt.Errorf("experiment: unknown workload %s", idx)
				}
				w, err := comp.Spec().BuildFor(r.Seed, cfg.AggregateCapacity())
				if err != nil {
					return nil, err
				}
				res, err := r.runPolicy(context.Background(), cfg, kind, w, nil)
				if err != nil {
					return nil, err
				}
				e, edp := res.TotalEnergyJ(), res.EnergyDelayProduct()
				if kind == SchedLinux {
					ref[idx] = [2]float64{e, edp}
					continue
				}
				base := ref[idx]
				if base[0] <= 0 || base[1] <= 0 {
					return nil, fmt.Errorf("experiment: missing linux energy baseline for %s", idx)
				}
				eRatios = append(eRatios, e/base[0])
				edpRatios = append(edpRatios, edp/base[1])
			}
			if kind == SchedLinux {
				t.AddRow(cfg.Name, kind, "1.000", "1.000")
				continue
			}
			t.AddRow(cfg.Name, kind, f3(mathx.GeoMean(eRatios)), f3(mathx.GeoMean(edpRatios)))
		}
	}
	t.Notes = append(t.Notes,
		"energy model: per-core busy/idle power (A57-like big, A53-like little); lower is better",
		"the paper reports no energy numbers; this table is an extension")
	return t, nil
}
