package experiment

import (
	"context"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/metrics"
	"colab/internal/policy"
	"colab/internal/workload"
)

// AblationVariant is one row of the ablation table, which regenerates
// the paper's argument that COLAB wins because its labeler, allocator and
// selector are co-designed (§3). Every row is a pipeline composition any
// API user can write, normalised twice: to Linux, which places it among
// the paper policies, and to full COLAB, which says what the switched-off
// or swapped part was worth.
type AblationVariant struct {
	// Label names the row: a registry policy name for the design choices,
	// the swap (e.g. "selector -> linux") for the stage swaps.
	Label string
	// Composition is the registry-grammar pipeline the row runs.
	Composition string
}

// AblationVariants returns the table's rows. The design choices come
// first: full COLAB (the second normalisation reference), its stage
// variants with one mechanism switched off, the ground-truth-model oracle,
// GTS and EAS. The stage swaps follow, each replacing one stage of the
// canonical COLAB composition, ending with the governor additions that
// only bite on DVFS-laddered machines.
func AblationVariants() []AblationVariant {
	var vs []AblationVariant
	for _, name := range []string{SchedCOLAB, SchedCOLABNoScale, SchedCOLABLocal, SchedCOLABFlat, SchedCOLABNoPull, SchedCOLABOracle, SchedGTS, SchedEAS} {
		comp, _ := policy.CanonicalComposition(name)
		vs = append(vs, AblationVariant{name, comp})
	}
	dvfs, _ := policy.CanonicalComposition(policy.COLABDVFS)
	return append(vs,
		AblationVariant{"labeler -> none", "colab.allocator+colab.selector"},
		AblationVariant{"labeler -> wash", "wash.labeler+colab.allocator+colab.selector"},
		AblationVariant{"allocator -> linux", "colab.labeler+linux.allocator+colab.selector"},
		AblationVariant{"selector -> linux", "colab.labeler+colab.allocator+linux.selector"},
		AblationVariant{"governor -> colab", dvfs},
		AblationVariant{"governor -> eas", "colab.labeler+colab.allocator+colab.selector+eas.governor"},
	)
}

// AblationTable runs every AblationVariants row on the Sync and Rand
// classes of Table 4 (14 compositions) on the 2B2S paper machine and the
// DVFS-laddered 2B2M2S, and reports per machine the geomean H_ANTT and
// H_STP normalised to Linux and to full COLAB (against COLAB, H_ANTT > 1
// means the switched-off or swapped part was load-bearing). The governor
// rows are inert on the fixed-frequency 2B2S — their exact 1.000 against
// COLAB there is itself evidence the governor composes without side
// effects.
func (r *Runner) AblationTable(ctx context.Context) (*Table, error) {
	comps := append(workload.CompositionsByClass(workload.ClassSync), workload.CompositionsByClass(workload.ClassRand)...)
	return r.ablationTable(ctx, comps, []cpu.Config{cpu.Config2B2S, cpu.Config2B2M2S})
}

// ablationTable is AblationTable on a given scope (tests run it reduced).
func (r *Runner) ablationTable(ctx context.Context, comps []workload.Composition, cfgs []cpu.Config) (*Table, error) {
	variants := AblationVariants()
	policies := []string{SchedLinux} // index 0; variant vi is vi+1
	for _, v := range variants {
		policies = append(policies, v.Composition)
	}
	specs := make([]workload.Spec, len(comps))
	for i, c := range comps {
		specs[i] = c.Spec()
	}
	score, err := r.runBatch(ctx, specs, cfgs, policies)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation: COLAB design choices and stage swaps on Sync+Rand, normalised to Linux and to full COLAB",
		Header: []string{"machine", "variant", "H_ANTT/linux", "H_STP/linux", "H_ANTT/colab", "H_STP/colab", "composition"},
	}
	for ci, cfg := range cfgs {
		for vi, v := range variants {
			row := []string{cfg.Name, v.Label}
			for _, ref := range []int{0, 1} { // Linux, then full COLAB
				var antt, stp []float64
				for si := range specs {
					n := metrics.Normalized(score(si, ci, vi+1), score(si, ci, ref))
					antt, stp = append(antt, n.HANTT), append(stp, n.HSTP)
				}
				row = append(row, f3(mathx.GeoMean(antt)), f3(mathx.GeoMean(stp)))
			}
			t.AddRow(append(row, v.Composition)...)
		}
	}
	t.Notes = append(t.Notes,
		"colab-noscale: no scale-slice; colab-local: no global selection; colab-flat: no hierarchical allocation; colab-nopull: big never preempts little; colab-oracle: ground-truth speedups",
		"against full COLAB, H_ANTT > 1 = the switched-off or replaced part was load-bearing",
		"governor rows add DVFS stages: inert (1.000 against COLAB) on fixed-frequency 2B2S, active on the laddered 2B2M2S",
		"governors trade turnaround for energy by design; their win metric is EDP (colab-bench -trigear)")
	return t, nil
}
