package experiment

// Class regrouping over grammar scenarios: ScenarioMatrixContext is RunMatrix
// for specs, and ClassTable regenerates a Figure 8-style per-class
// H_ANTT/H_STP table grouped by the @class= label each scenario declares
// — by default over the standard suite (workload.StandardSuite).

import (
	"context"
	"fmt"

	"colab/internal/cpu"
	"colab/internal/metrics"
	"colab/internal/workload"
)

// ScenarioMatrixContext evaluates the given scenario specs x configs x
// schedulers in parallel, with cooperative cancellation, and returns one
// Cell per combination, with Cell.Workload the scenario name and
// Cell.Class its @class= label. The fan-out goes through the runner's one
// matrix path (runBatch), and Linux is always included as the
// normalisation reference.
func (r *Runner) ScenarioMatrixContext(ctx context.Context, specs []workload.Spec, cfgs []cpu.Config, kinds []string) ([]Cell, error) {
	// all is linux followed by kinds, deduplicated; at records each
	// kind's position in it.
	all := []string{SchedLinux}
	at := map[string]int{SchedLinux: 0}
	for _, k := range kinds {
		if _, ok := at[k]; !ok {
			at[k] = len(all)
			all = append(all, k)
		}
	}
	score, err := r.runBatch(ctx, specs, cfgs, all)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for si, spec := range specs {
		for ci, cfg := range cfgs {
			ref := score(si, ci, 0)
			for _, k := range kinds {
				raw := score(si, ci, at[k])
				cells = append(cells, Cell{
					Workload: spec.Name,
					Class:    spec.Class,
					Config:   cfg.Name,
					Sched:    k,
					Raw:      raw,
					Norm:     metrics.Normalized(raw, ref),
				})
			}
		}
	}
	return cells, nil
}

// ClassTable regenerates a Figure 8-style per-class table over grammar
// scenarios, grouped by each scenario's @class= label. Empty arguments
// take the defaults: the standard suite, the evaluated configs, and
// WASH+COLAB. Every named scenario must declare a class.
func (r *Runner) ClassTable(ctx context.Context, names []string, cfgs []cpu.Config, kinds []string) (*Table, error) {
	if len(names) == 0 {
		names = workload.SuiteNames()
	}
	if len(cfgs) == 0 {
		cfgs = cpu.EvaluatedConfigs()
	}
	if len(kinds) == 0 {
		kinds = []string{SchedWASH, SchedCOLAB}
	}
	var specs []workload.Spec
	var groups []string
	seenGroup := map[workload.Class]bool{}
	for _, name := range names {
		spec, err := workload.ResolveSpec(name)
		if err != nil {
			return nil, err
		}
		if spec.Class == "" {
			return nil, fmt.Errorf("experiment: scenario %q declares no @class= label, so ClassTable cannot group it", name)
		}
		specs = append(specs, spec)
		if !seenGroup[spec.Class] {
			seenGroup[spec.Class] = true
			groups = append(groups, string(spec.Class))
		}
	}
	cells, err := r.ScenarioMatrixContext(ctx, specs, cfgs, kinds)
	if err != nil {
		return nil, err
	}
	t := classAggregate(cells,
		func(c Cell) (string, bool) { return string(c.Class), c.Class != "" },
		groups, kinds)
	t.Title = "Per-class scenarios (@class= labels), normalised to Linux"
	return t, nil
}
