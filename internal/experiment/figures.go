package experiment

import (
	"fmt"
	"strings"

	"colab/internal/cpu"
	"colab/internal/mathx"
	"colab/internal/perfmodel"
	"colab/internal/workload"
)

// Figure4Benches are the twelve single-program benchmarks of Figure 4 (the
// three 2-thread-capped SPLASH-2 kernels are excluded, §5.2).
func Figure4Benches() []string {
	return []string{
		"radix", "lu_ncb", "lu_cb", "fft", "blackscholes", "bodytrack",
		"dedup", "fluidanimate", "swaptions", "ocean_cp", "freqmine", "ferret",
	}
}

// Figure4 reproduces the single-program study: H_NTT per benchmark on the
// 2-big-2-little configuration under Linux, WASH and COLAB.
func (r *Runner) Figure4() (*Table, error) {
	const threads = 4
	cfg := cpu.Config2B2S
	t := &Table{
		Title:  "Figure 4: single-program H_NTT on 2B2S (lower is better)",
		Header: []string{"benchmark", "linux", "wash", "colab"},
	}
	per := map[string][]float64{SchedLinux: nil, SchedWASH: nil, SchedCOLAB: nil}
	for _, bench := range Figure4Benches() {
		row := []string{bench}
		for _, kind := range PaperSchedulers() {
			s, err := r.SingleProgram(bench, threads, cfg, kind)
			if err != nil {
				return nil, err
			}
			per[kind] = append(per[kind], s.HNTT)
			row = append(row, f3(s.HNTT))
		}
		t.AddRow(row...)
	}
	t.AddRow("geomean",
		f3(mathx.GeoMean(per[SchedLinux])),
		f3(mathx.GeoMean(per[SchedWASH])),
		f3(mathx.GeoMean(per[SchedCOLAB])))
	return t, nil
}

// classAggregate geomeans normalised scores over the workloads of each
// (group, config, scheduler) cell.
func classAggregate(cells []Cell, group func(Cell) (string, bool), groups []string, kinds []string) *Table {
	type key struct{ g, cfg, k string }
	antt := map[key][]float64{}
	stp := map[key][]float64{}
	var cfgs []string
	seenCfg := map[string]bool{}
	for _, c := range cells {
		g, ok := group(c)
		if !ok {
			continue
		}
		k := key{g, c.Config, c.Sched}
		antt[k] = append(antt[k], c.Norm.HANTT)
		stp[k] = append(stp[k], c.Norm.HSTP)
		if !seenCfg[c.Config] {
			seenCfg[c.Config] = true
			cfgs = append(cfgs, c.Config)
		}
	}
	t := &Table{Header: []string{"group", "config"}}
	for _, k := range kinds {
		t.Header = append(t.Header, k+" H_ANTT", k+" H_STP")
	}
	for _, g := range groups {
		var gaNTT, gSTP = map[string][]float64{}, map[string][]float64{}
		for _, cfg := range cfgs {
			row := []string{g, cfg}
			any := false
			for _, kind := range kinds {
				k := key{g, cfg, kind}
				if len(antt[k]) == 0 {
					row = append(row, "-", "-")
					continue
				}
				any = true
				a := mathx.GeoMean(antt[k])
				s := mathx.GeoMean(stp[k])
				gaNTT[kind] = append(gaNTT[kind], a)
				gSTP[kind] = append(gSTP[kind], s)
				row = append(row, f3(a), f3(s))
			}
			if any {
				t.AddRow(row...)
			}
		}
		row := []string{g, "geomean"}
		for _, kind := range kinds {
			if len(gaNTT[kind]) == 0 {
				row = append(row, "-", "-")
				continue
			}
			row = append(row, f3(mathx.GeoMean(gaNTT[kind])), f3(mathx.GeoMean(gSTP[kind])))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "all values normalised to Linux CFS; H_ANTT < 1 and H_STP > 1 mean better than Linux")
	return t
}

// classCells runs the full paper matrix for the given classes.
func (r *Runner) classCells(classes ...workload.Class) ([]Cell, error) {
	var comps []workload.Composition
	for _, cl := range classes {
		comps = append(comps, workload.CompositionsByClass(cl)...)
	}
	return r.RunMatrix(comps, cpu.EvaluatedConfigs(), []string{SchedWASH, SchedCOLAB})
}

// Figure5 reproduces the Sync vs NSync class comparison.
func (r *Runner) Figure5() (*Table, error) {
	cells, err := r.classCells(workload.ClassSync, workload.ClassNSync)
	if err != nil {
		return nil, err
	}
	t := classAggregate(cells,
		func(c Cell) (string, bool) { return string(c.Class), true },
		[]string{string(workload.ClassSync), string(workload.ClassNSync)},
		[]string{SchedWASH, SchedCOLAB})
	t.Title = "Figure 5: Sync vs NSync workloads, normalised to Linux"
	return t, nil
}

// Figure6 reproduces the Comm vs Comp class comparison.
func (r *Runner) Figure6() (*Table, error) {
	cells, err := r.classCells(workload.ClassComm, workload.ClassComp)
	if err != nil {
		return nil, err
	}
	t := classAggregate(cells,
		func(c Cell) (string, bool) { return string(c.Class), true },
		[]string{string(workload.ClassComm), string(workload.ClassComp)},
		[]string{SchedWASH, SchedCOLAB})
	t.Title = "Figure 6: Comm vs Comp workloads, normalised to Linux"
	return t, nil
}

// Figure7 reproduces the random-mixed class results.
func (r *Runner) Figure7() (*Table, error) {
	cells, err := r.classCells(workload.ClassRand)
	if err != nil {
		return nil, err
	}
	t := classAggregate(cells,
		func(c Cell) (string, bool) { return "Random-mix", true },
		[]string{"Random-mix"},
		[]string{SchedWASH, SchedCOLAB})
	t.Title = "Figure 7: random-mixed workloads, normalised to Linux"
	return t, nil
}

// allCells runs the complete 26-workload matrix once (memoised).
func (r *Runner) allCells(kinds []string) ([]Cell, error) {
	return r.RunMatrix(workload.Compositions(), cpu.EvaluatedConfigs(), kinds)
}

// coreCount maps a config name back to its total cores.
func coreCount(name string) int {
	for _, c := range cpu.EvaluatedConfigs() {
		if c.Name == name {
			return c.NumCores()
		}
	}
	return 0
}

// maxEvaluatedCores is the largest evaluated machine (4B4S): the paper's
// "high thread count" means at least double this.
func maxEvaluatedCores() int {
	mx := 0
	for _, c := range cpu.EvaluatedConfigs() {
		if n := c.NumCores(); n > mx {
			mx = n
		}
	}
	return mx
}

// Figure8 regroups all workloads by thread count: low (< cores of the
// config) vs high (>= 2x the maximum core count).
func (r *Runner) Figure8() (*Table, error) {
	cells, err := r.allCells([]string{SchedWASH, SchedCOLAB})
	if err != nil {
		return nil, err
	}
	highBar := 2 * maxEvaluatedCores()
	group := func(c Cell) (string, bool) {
		comp, ok := workload.CompositionByIndex(c.Workload)
		if !ok {
			return "", false
		}
		n := comp.TotalThreads()
		switch {
		case n <= coreCount(c.Config):
			return "Thread-low", true
		case n >= highBar:
			return "Thread-high", true
		default:
			return "", false
		}
	}
	t := classAggregate(cells, group, []string{"Thread-low", "Thread-high"}, []string{SchedWASH, SchedCOLAB})
	t.Title = "Figure 8: low vs high thread-count workloads, normalised to Linux"
	return t, nil
}

// Figure9 regroups all workloads by program count (2- vs 4-programmed).
func (r *Runner) Figure9() (*Table, error) {
	cells, err := r.allCells([]string{SchedWASH, SchedCOLAB})
	if err != nil {
		return nil, err
	}
	group := func(c Cell) (string, bool) {
		comp, ok := workload.CompositionByIndex(c.Workload)
		if !ok {
			return "", false
		}
		switch comp.NumPrograms() {
		case 2:
			return "2-programmed", true
		case 4:
			return "4-programmed", true
		default:
			return "", false
		}
	}
	t := classAggregate(cells, group, []string{"2-programmed", "4-programmed"}, []string{SchedWASH, SchedCOLAB})
	t.Title = "Figure 9: 2- vs 4-programmed workloads, normalised to Linux"
	return t, nil
}

// Summary reproduces the paper's closing aggregate over the full matrix
// ("In summary from all 312 experiments...").
func (r *Runner) Summary() (*Table, error) {
	cells, err := r.allCells([]string{SchedWASH, SchedCOLAB})
	if err != nil {
		return nil, err
	}
	antt := map[string][]float64{}
	stp := map[string][]float64{}
	for _, c := range cells {
		antt[c.Sched] = append(antt[c.Sched], c.Norm.HANTT)
		stp[c.Sched] = append(stp[c.Sched], c.Norm.HSTP)
	}
	t := &Table{
		Title:  "Summary: all Table 4 workloads x 4 configs (312 simulations incl. core orders)",
		Header: []string{"scheduler", "H_ANTT vs linux", "H_STP vs linux", "turnaround gain", "throughput gain"},
	}
	for _, k := range []string{SchedWASH, SchedCOLAB} {
		a := mathx.GeoMean(antt[k])
		s := mathx.GeoMean(stp[k])
		t.AddRow(k, f3(a), f3(s), pct(1/a), pct(s))
	}
	wa, ca := mathx.GeoMean(antt[SchedWASH]), mathx.GeoMean(antt[SchedCOLAB])
	ws, cs := mathx.GeoMean(stp[SchedWASH]), mathx.GeoMean(stp[SchedCOLAB])
	t.Notes = append(t.Notes,
		fmt.Sprintf("COLAB vs WASH: turnaround %s, throughput %s", pct(wa/ca), pct(cs/ws)),
		"paper reports: COLAB vs Linux -11%% turnaround / +15%% throughput; vs WASH -5%% / +6%%")
	return t, nil
}

// Table2 regenerates the paper's Table 2: the PCA-selected counters and the
// linear speedup model, from freshly collected symmetric training runs.
func Table2() (string, error) {
	model, err := perfmodel.Default()
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("== Table 2: selected performance counters and speedup model ==\n")
	sb.WriteString(model.Describe())
	return sb.String(), nil
}

// Table3 renders the benchmark categorisation.
func Table3() *Table {
	t := &Table{
		Title:  "Table 3: benchmark categorisation",
		Header: []string{"name", "suite", "sync rate", "comm/comp ratio", "max threads"},
	}
	for _, b := range workload.All() {
		maxT := "-"
		if b.MaxThreads > 0 {
			maxT = fmt.Sprintf("%d", b.MaxThreads)
		}
		t.AddRow(b.Name, b.Suite, string(b.SyncRate), string(b.CommComp), maxT)
	}
	return t
}

// Table4 renders the workload compositions.
func Table4() *Table {
	t := &Table{
		Title:  "Table 4: multi-programmed workload compositions",
		Header: []string{"index", "class", "composition", "threads"},
	}
	for _, c := range workload.Compositions() {
		var parts []string
		for _, p := range c.Parts {
			parts = append(parts, fmt.Sprintf("%s(%d)", p.Bench, p.Threads))
		}
		t.AddRow(c.Index, string(c.Class), strings.Join(parts, " - "), fmt.Sprintf("%d", c.TotalThreads()))
	}
	return t
}
