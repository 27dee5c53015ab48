package experiment

import (
	"context"
	"fmt"

	"colab/internal/cpu"
	"colab/internal/metrics"
	"colab/internal/workload"
)

// NUMASweepCosts are the per-hop migration penalties (cold-cache cycles)
// the sensitivity sweep evaluates, from free migrations up to a penalty an
// order of magnitude past the default.
func NUMASweepCosts() []float64 {
	return []float64{0, 2000, 8000, 32000, 128000}
}

// NUMASweepTable is the migration-cost sensitivity study on the small
// two-socket palette: Linux, WASH and COLAB on Config2x2B2S with the
// per-hop penalty swept over NUMASweepCosts. The linux column is
// normalised to the zero-cost Linux run (how much the added realism costs
// an unaware baseline); the WASH and COLAB columns are normalised to
// Linux at the same cost (what topology-aware placement buys back). The
// zero-cost row exercises the reduction guarantee: it is bit-identical to
// the same palette with no topology at all.
func (r *Runner) NUMASweepTable() (*Table, error) {
	cfg := cpu.Config2x2B2S
	const idx = "Rand-7"
	comp, ok := workload.CompositionByIndex(idx)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown workload %s", idx)
	}
	ctx := context.Background()
	spec := comp.Spec()
	// Baselines are solo runs on a big core: no migrations happen, so they
	// are identical across every cost row.
	closed, err := spec.BuildClosed(r.Seed)
	if err != nil {
		return nil, err
	}
	bases, err := r.specBaselines(ctx, spec, closed, cfg)
	if err != nil {
		return nil, err
	}
	type cell struct {
		score metrics.MixScore
		hops  int
	}
	eval := func(c cpu.Config, kind string) (cell, error) {
		w, err := mixInstance(spec, closed, r.Seed, c)
		if err != nil {
			return cell{}, err
		}
		res, err := r.runPolicy(ctx, c, kind, w, nil)
		if err != nil {
			return cell{}, fmt.Errorf("experiment: NUMA sweep %s under %s: %w", c.Name, kind, err)
		}
		sc, err := score(res, bases)
		if err != nil {
			return cell{}, err
		}
		hops := 0
		for _, th := range res.Threads {
			hops += th.CrossDomainHops
		}
		return cell{sc, hops}, nil
	}
	t := &Table{
		Title: fmt.Sprintf("NUMA migration-cost sweep: %s on %s", idx, cfg.Name),
		Header: []string{"cost(cyc/hop)", "linux H_ANTT", "wash H_ANTT", "colab H_ANTT",
			"wash H_STP", "colab H_STP", "colab hops"},
	}
	var linuxFree cell
	for i, cost := range NUMASweepCosts() {
		cc := cfg.WithMigrationCost(cost)
		lin, err := eval(cc, SchedLinux)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			linuxFree = lin
		}
		wa, err := eval(cc, SchedWASH)
		if err != nil {
			return nil, err
		}
		co, err := eval(cc, SchedCOLAB)
		if err != nil {
			return nil, err
		}
		nl := metrics.Normalized(lin.score, linuxFree.score)
		nw := metrics.Normalized(wa.score, lin.score)
		nc := metrics.Normalized(co.score, lin.score)
		t.AddRow(fmt.Sprintf("%g", cost),
			f3(nl.HANTT), f3(nw.HANTT), f3(nc.HANTT),
			f3(nw.HSTP), f3(nc.HSTP),
			fmt.Sprintf("%d", co.hops))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("machine: %s — 2 sockets x (2 big + 2 little), one LLC domain per socket", cfg.Name),
		"linux H_ANTT normalised to the zero-cost Linux run; wash/colab normalised to Linux at the same cost",
		"H_ANTT lower is better, H_STP higher is better; colab hops = cross-domain hop count under COLAB",
		"the zero-cost row is bit-identical to the flat (topology-free) palette by construction")
	return t, nil
}
