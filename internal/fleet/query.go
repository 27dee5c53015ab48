package fleet

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/mathx"
)

// SpecFromQuery decodes the sweep axes of a /run query — workload,
// machine, policy and seed — into the Spec a coordinator ships as JSON,
// with colab.Experiment's defaults: machine 2B2S, the paper policies,
// seed 1. Each axis takes repeated and comma-separated values alike:
// ?policy=linux,wash&policy=colab is three policies. colab-fleet decodes
// its sweep flags through it too.
func SpecFromQuery(q url.Values) (Spec, error) {
	spec := Spec{
		Workloads: splitList(q["workload"]),
		Machines:  splitList(q["machine"]),
		Policies:  splitList(q["policy"]),
	}
	if len(spec.Workloads) == 0 {
		return spec, fmt.Errorf("at least one workload is required (a registered name or a scenario-grammar spec)")
	}
	if len(spec.Machines) == 0 {
		spec.Machines = []string{cpu.Config2B2S.Name}
	}
	if len(spec.Policies) == 0 {
		spec.Policies = experiment.PaperSchedulers()
	}
	for _, v := range splitList(q["seed"]) {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return spec, fmt.Errorf("seed %q is not an unsigned integer", v)
		}
		spec.Seeds = append(spec.Seeds, n)
	}
	if len(spec.Seeds) == 0 {
		spec.Seeds = []uint64{1}
	}
	return spec, nil
}

// splitList flattens repeated and comma-separated query values into one
// trimmed list: ?policy=linux,wash&policy=colab is three policies.
func splitList(values []string) []string {
	var out []string
	for _, v := range values {
		for _, part := range strings.Split(v, ",") {
			if part = strings.TrimSpace(part); part != "" {
				out = append(out, part)
			}
		}
	}
	return out
}

// batchFromQuery decodes a /run query into its validated batch: the
// SpecFromQuery axes plus the single-valued workers, shard_index,
// shard_count and classes parameters. It also reports whether the class
// trailer was asked for. Every error names the parameter or the value at
// fault.
func batchFromQuery(q url.Values) (b *experiment.Batch, classes bool, err error) {
	spec, err := SpecFromQuery(q)
	if err != nil {
		return nil, false, err
	}
	// The single-valued parameters refuse repeats: ?workers=1&workers=2
	// is an error, not 12 workers.
	one := make(map[string]string, 4)
	for _, name := range []string{"workers", "shard_index", "shard_count", "classes"} {
		if len(q[name]) > 1 {
			return nil, false, fmt.Errorf("parameter %s is repeated; give it once", name)
		}
		one[name] = strings.TrimSpace(q.Get(name))
	}
	if v := one["workers"]; v != "" {
		if spec.Workers, err = strconv.Atoi(v); err != nil || spec.Workers < 1 {
			return nil, false, fmt.Errorf("workers %q is not a positive integer", v)
		}
	}
	var shardIndex, shardCount int
	if one["shard_index"] != "" || one["shard_count"] != "" {
		var err1, err2 error
		shardIndex, err1 = strconv.Atoi(one["shard_index"])
		shardCount, err2 = strconv.Atoi(one["shard_count"])
		if err1 != nil || err2 != nil {
			return nil, false, fmt.Errorf("shard_index and shard_count must be set together as integers")
		}
	}
	if b, err = spec.Batch(shardIndex, shardCount); err != nil {
		return nil, false, err
	}
	c := one["classes"]
	return b, c != "" && c != "0" && c != "false", nil
}

// ClassLine is one row of the ?classes=1 trailer: the ClassTable grouping
// of the streamed cells, geomeaned per (class, policy) in first-seen
// stream order.
type ClassLine struct {
	Class  string  `json:"class"`
	Policy string  `json:"policy"`
	Cells  int     `json:"cells"`
	HANTT  float64 `json:"geomean_h_antt"`
	HSTP   float64 `json:"geomean_h_stp"`
}

// classLines folds the streamed cells into the per-class grouping.
func classLines(cells []Cell) []ClassLine {
	type group struct {
		line      ClassLine
		antt, stp []float64
	}
	var groups []*group
	index := make(map[[2]string]*group)
	for _, c := range cells {
		class := c.Class
		if class == "" {
			class = "unclassified"
		}
		g := index[[2]string{class, c.Policy}]
		if g == nil {
			g = &group{line: ClassLine{Class: class, Policy: c.Policy}}
			index[[2]string{class, c.Policy}] = g
			groups = append(groups, g)
		}
		g.antt, g.stp = append(g.antt, c.HANTT), append(g.stp, c.HSTP)
	}
	out := make([]ClassLine, len(groups))
	for i, g := range groups {
		out[i] = g.line
		out[i].Cells, out[i].HANTT, out[i].HSTP = len(g.antt), mathx.GeoMean(g.antt), mathx.GeoMean(g.stp)
	}
	return out
}
