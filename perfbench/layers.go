package main

// perLayer lists every per-layer metric the traced pass reports, with its
// unit. A workload that does not exercise a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"workload.build_calls", "count"},
	{"workload.build_ms", "ms"},
	{"workload.parse_us", "us"},
	{"perfmodel.train_ms", "ms"},
	{"perfmodel.predict_calls", "count"},
	{"perfmodel.predict_ms", "ms"},
	{"sched.enqueue_calls", "count"},
	{"sched.enqueue_ms", "ms"},
	{"sched.picknext_calls", "count"},
	{"sched.picknext_ms", "ms"},
	{"sched.selectopp_ms", "ms"},
	{"sched.other_ms", "ms"},
	{"sched.enqueue_ms.numa", "ms"},
	{"sched.enqueue_ms.flat", "ms"},
	{"sched.picknext_ms.numa", "ms"},
	{"sched.picknext_ms.flat", "ms"},
	{"kernel.runs", "count"},
	{"kernel.run_ms", "ms"},
	{"kernel.self_ms", "ms"},
	{"kernel.new_machine_ms", "ms"},
	{"kernel.events", "count"},
	{"kernel.events_per_s.numa", "1/s"},
	{"kernel.events_per_s.flat", "1/s"},
	{"kernel.migrations", "count"},
	{"kernel.preemptions", "count"},
	{"kernel.switches", "count"},
	{"kernel.cross_domain_hops", "count"},
	{"kernel.sim_end_ms", "ms"},
	{"metrics.score_calls", "count"},
	{"metrics.score_ms", "ms"},
	{"experiment.cell_p50_ms", "ms"},
	{"experiment.cell_p90_ms", "ms"},
	{"experiment.journal_record_ms", "ms"},
	{"experiment.journal_replay_ms", "ms"},
	{"experiment.cache_hits", "count"},
	{"experiment.cache_misses", "count"},
	{"experiment.cache_evictions", "count"},
	{"experiment.cache_hit_ratio", "ratio"},
	{"experiment.plan_ms", "ms"},
	{"fleet.dispatches", "count"},
	{"fleet.retries", "count"},
	{"fleet.dispatch_ttfb_ms", "ms"},
	{"fleet.wire_bytes_per_cell", "B"},
	{"fleet.coord_self_ms", "ms"},
	{"serve.requests", "count"},
	{"serve.rejected", "count"},
	{"serve.first_cell_p50_ms", "ms"},
	{"serve.bytes_per_cell", "B"},
	{"serve.cpu_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.evictions", "count"},
	{"go.alloc_kb_per_cell", "KiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"req.samples", "count"},
	{"host.probe_ms", "ms"},
	{"host.steal_share", "ratio"},
}

// layers accumulates per-layer metric values, derived from spans where the
// benchmark timed a seam and set directly where a layer reports its own
// counters (cache and service statistics).
type layers struct {
	vals map[string]float64
}

// newLayers folds the spans into per-layer totals.
func newLayers(spans []span) *layers {
	l := &layers{vals: make(map[string]float64)}
	var cellMS []float64
	var evNUMA, evFlat, runNUMA, runFlat float64
	for _, s := range spans {
		d := s.ms()
		switch s.Name {
		case "workload.build":
			l.vals["workload.build_calls"]++
			l.vals["workload.build_ms"] += d
		case "workload.parse":
			l.vals["workload.parse_calls"]++
			l.vals["workload.parse_us"] += d * 1000
		case "kernel.new_machine":
			l.vals["kernel.new_machine_ms"] += d
		case "kernel.run":
			a := s.Attrs
			l.vals["kernel.runs"]++
			l.vals["kernel.run_ms"] += d
			l.vals["kernel.self_ms"] += d - a["sched_ms"] - a["predict_outside_ms"]
			l.vals["kernel.events"] += a["events"]
			for _, k := range []string{"migrations", "preemptions", "switches", "cross_domain_hops", "sim_end_ms"} {
				l.vals["kernel."+k] += a[k]
			}
			for _, k := range []string{"enqueue_calls", "enqueue_ms", "picknext_calls", "picknext_ms", "selectopp_ms", "other_ms"} {
				l.vals["sched."+k] += a[k]
			}
			l.vals["perfmodel.predict_calls"] += a["predict_calls"]
			l.vals["perfmodel.predict_ms"] += a["predict_ms"]
			switch s.Tag {
			case "numa":
				l.vals["sched.enqueue_ms.numa"] += a["enqueue_ms"]
				l.vals["sched.picknext_ms.numa"] += a["picknext_ms"]
				evNUMA += a["events"]
				runNUMA += d / 1000
			case "flat":
				l.vals["sched.enqueue_ms.flat"] += a["enqueue_ms"]
				l.vals["sched.picknext_ms.flat"] += a["picknext_ms"]
				evFlat += a["events"]
				runFlat += d / 1000
			}
		case "metrics.score":
			l.vals["metrics.score_calls"]++
			l.vals["metrics.score_ms"] += d
		case "experiment.cell":
			cellMS = append(cellMS, d)
		case "experiment.journal_record":
			l.vals["experiment.journal_record_ms"] += d
		case "experiment.journal_replay":
			l.vals["experiment.journal_replay_ms"] += d
		case "experiment.plan":
			l.vals["experiment.plan_ms"] += d
		}
	}
	if n := l.vals["workload.parse_calls"]; n > 0 {
		l.vals["workload.parse_us"] /= n
	}
	delete(l.vals, "workload.parse_calls")
	if runNUMA > 0 {
		l.vals["kernel.events_per_s.numa"] = evNUMA / runNUMA
	}
	if runFlat > 0 {
		l.vals["kernel.events_per_s.flat"] = evFlat / runFlat
	}
	l.vals["experiment.cell_p50_ms"] = quantile(cellMS, 0.50)
	l.vals["experiment.cell_p90_ms"] = quantile(cellMS, 0.90)
	return l
}

func (l *layers) set(name string, v float64) { l.vals[name] = v }

// apply writes every per-layer metric into the report; main overwrites
// the two host.* metrics after the run.
func (l *layers) apply(r *report) {
	for _, m := range perLayer {
		r.set(m.name, l.vals[m.name], m.unit)
	}
}
