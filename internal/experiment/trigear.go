package experiment

import (
	"context"
	"fmt"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/metrics"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// TriGearWorkloads are the representative per-class compositions the
// tri-gear extension table evaluates (one per Table 4 class).
func TriGearWorkloads() []string {
	return []string{"Sync-2", "NSync-2", "Comm-2", "Comp-2", "Rand-7"}
}

// TriGearSchedulers are the policies the tri-gear table compares: the five
// PR-1 policies plus COLAB with its native DVFS governor and per-tier
// trained speedup models.
func TriGearSchedulers() []string {
	return []string{SchedLinux, SchedWASH, SchedCOLAB, SchedCOLABDVFS, SchedGTS, SchedEAS}
}

// nominalResidency is the fraction of machine busy time spent at the
// nominal (top) operating point — 1.0 for any fixed-frequency policy, lower
// the more a DVFS governor caps cores.
func nominalResidency(res *kernel.Result) float64 {
	var busy, nom sim.Time
	for _, c := range res.Cores {
		for i, b := range c.BusyByOPP {
			busy += b
			if i == len(c.BusyByOPP)-1 {
				nom += b
			}
		}
	}
	if busy == 0 {
		return 1
	}
	return float64(nom) / float64(busy)
}

// TriGearTable is the multi-tier extension study: the six TriGearSchedulers
// (the five PR-1 policies plus COLAB with its native DVFS governor) on the
// 2B2M2S DynamIQ-style machine (two big, two medium, two little cores,
// every tier with a DVFS ladder). H_ANTT / H_STP are averaged over the two
// core orders and normalised to Linux, like the paper tables; the energy,
// EDP and frequency-residency columns come from the big-first run and
// exercise the per-OPP power model (EAS and colab-dvfs program the
// ladders; every other policy runs fixed at nominal).
func (r *Runner) TriGearTable() (*Table, error) {
	cfg := cpu.Config2B2M2S
	kinds := TriGearSchedulers()
	t := &Table{
		Title:  fmt.Sprintf("Tri-gear extension: policies on %s (normalised to Linux)", cfg.Name),
		Header: []string{"sched", "H_ANTT", "H_STP", "energy", "EDP", "f@nom"},
	}
	type cell struct {
		score        metrics.MixScore
		e, edp, fnom float64
	}
	perSched := map[string]struct {
		antt, stp, e, edp, fnom []float64
	}{}
	ctx := context.Background()
	for _, idx := range TriGearWorkloads() {
		comp, ok := workload.CompositionByIndex(idx)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown workload %s", idx)
		}
		spec := comp.Spec()
		closed, err := spec.BuildClosed(r.Seed)
		if err != nil {
			return nil, err
		}
		// The scores average both core orders (as the paper does); the
		// energy columns read the big-first run.
		keys := r.baselineKeys(spec, cfg.NumCores())
		eval := func(kind string) (c cell, err error) {
			c.score, err = r.specScore(ctx, spec, closed, cfg, kind, keys, nil, func(bigFirst bool, res *kernel.Result) {
				if bigFirst {
					c.e, c.edp, c.fnom = res.TotalEnergyJ(), res.EnergyDelayProduct(), nominalResidency(res)
				}
			})
			return c, err
		}
		ref, err := eval(SchedLinux)
		if err != nil {
			return nil, err
		}
		if ref.e <= 0 || ref.edp <= 0 {
			return nil, fmt.Errorf("experiment: missing linux energy reference for %s", idx)
		}
		for _, kind := range kinds {
			c := ref
			if kind != SchedLinux {
				if c, err = eval(kind); err != nil {
					return nil, err
				}
			}
			agg := perSched[kind]
			norm := metrics.Normalized(c.score, ref.score)
			agg.antt = append(agg.antt, norm.HANTT)
			agg.stp = append(agg.stp, norm.HSTP)
			agg.e = append(agg.e, c.e/ref.e)
			agg.edp = append(agg.edp, c.edp/ref.edp)
			agg.fnom = append(agg.fnom, c.fnom)
			perSched[kind] = agg
		}
	}
	for _, kind := range kinds {
		agg := perSched[kind]
		t.AddRow(kind,
			f3(mathx.GeoMean(agg.antt)), f3(mathx.GeoMean(agg.stp)),
			f3(mathx.GeoMean(agg.e)), f3(mathx.GeoMean(agg.edp)),
			f3(mathx.Mean(agg.fnom)))
	}
	t.Notes = append(t.Notes,
		"machine: 2 big (A57-like, OPPs 1.2/1.6/2.0 GHz) + 2 medium (A72-like, 1.0/1.3/1.6 GHz) + 2 little (A53-like, 0.6/0.9/1.2 GHz)",
		"geomean over one representative workload per class; H_ANTT/energy/EDP lower is better, H_STP higher is better",
		"f@nom: fraction of busy time at the nominal operating point (mean over workloads; 1.0 = fixed frequency)",
		"colab-dvfs: COLAB's native label-driven governor with per-tier trained speedup models",
		"the paper evaluates two-tier machines only; this table is the multi-tier extension")
	return t, nil
}

// ---------------------------------------------------------------------------
// OPP sweep: the frequency-scaling scenario.

// fixedOPPSched pins every DVFS-capable core at one ladder index (clamped
// per core), turning any policy into its fixed-frequency variant at an
// arbitrary operating point.
type fixedOPPSched struct {
	kernel.Scheduler
	idx int
}

// SelectOPP implements kernel.DVFSGovernor.
func (f fixedOPPSched) SelectOPP(*kernel.Core, *task.Thread) int { return f.idx }

// OPPSweepTable sweeps the tri-gear machine's frequency ladders under
// COLAB: every core pinned at ladder step 0, 1, ... up to nominal, plus the
// native governor. Scores are normalised to the nominal (fixed-frequency)
// run; energy is absolute joules. The sweep quantifies what the governor is
// trading: pinning low saves energy but stretches turnaround, the governor
// recovers the turnaround while keeping most of the savings.
func (r *Runner) OPPSweepTable() (*Table, error) {
	cfg := cpu.Config2B2M2S
	const idx = "Rand-7"
	comp, ok := workload.CompositionByIndex(idx)
	if !ok {
		return nil, fmt.Errorf("experiment: unknown workload %s", idx)
	}
	ctx := context.Background()
	spec := comp.Spec()
	closed, err := spec.BuildClosed(r.Seed)
	if err != nil {
		return nil, err
	}
	bases, err := r.specBaselines(ctx, spec, closed, cfg, r.baselineKeys(spec, cfg.NumCores()))
	if err != nil {
		return nil, err
	}
	maxOPPs := 0
	for _, tier := range cfg.Tiers() {
		if n := len(tier.Ladder()); n > maxOPPs {
			maxOPPs = n
		}
	}
	type row struct {
		name  string
		score metrics.MixScore
		e     float64
		edp   float64
		fnom  float64
	}
	eval := func(name, kind string, pin int) (row, error) {
		s, err := r.NewScheduler(kind)
		if err != nil {
			return row{}, err
		}
		if pin >= 0 {
			s = fixedOPPSched{s, pin}
		}
		w, err := mixInstance(spec, closed, r.Seed, cfg)
		if err != nil {
			return row{}, err
		}
		res, err := r.run(ctx, cfg, s, w, nil)
		if err != nil {
			return row{}, fmt.Errorf("experiment: OPP sweep %s: %w", name, err)
		}
		sc, err := score(res, bases)
		if err != nil {
			return row{}, err
		}
		return row{name, sc, res.TotalEnergyJ(), res.EnergyDelayProduct(), nominalResidency(res)}, nil
	}
	var rows []row
	for opp := 0; opp < maxOPPs; opp++ {
		name := fmt.Sprintf("colab @OPP%d", opp)
		if opp == maxOPPs-1 {
			name = "colab @nominal"
		}
		rw, err := eval(name, SchedCOLAB, opp)
		if err != nil {
			return nil, err
		}
		rows = append(rows, rw)
	}
	govRow, err := eval("colab-dvfs (governor)", SchedCOLABDVFS, -1)
	if err != nil {
		return nil, err
	}
	rows = append(rows, govRow)
	ref := rows[maxOPPs-1] // nominal fixed-frequency reference
	t := &Table{
		Title:  fmt.Sprintf("OPP sweep: COLAB across the %s frequency ladders on %s", idx, cfg.Name),
		Header: []string{"variant", "H_ANTT", "H_STP", "energy(J)", "EDP(Js)", "f@nom"},
	}
	for _, rw := range rows {
		norm := metrics.Normalized(rw.score, ref.score)
		t.AddRow(rw.name, f3(norm.HANTT), f3(norm.HSTP), f3(rw.e), f3(rw.edp), f3(rw.fnom))
	}
	t.Notes = append(t.Notes,
		"H_ANTT/H_STP normalised to the nominal fixed-frequency run; energy and EDP are absolute",
		"@OPPk pins every core at ladder step k (clamped per tier); the governor picks per-dispatch")
	return t, nil
}
