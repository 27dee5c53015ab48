package kernel_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/policy"
	"colab/internal/task"
	"colab/internal/workload"
)

// TestCounterFreeRunsScheduleAlike is the guard behind running the
// predictor-blind policies without counter synthesis, the machine's default
// for them: for every built-in policy that policy.NeedsSpeedup reports
// blind, a run with counters off must give a deep-equal Result and the
// same trace as a run with them on, on the paper shape, the tri-gear DVFS
// palette and the two-socket NUMA palette, and must leave every thread's
// counters zero.
func TestCounterFreeRunsScheduleAlike(t *testing.T) {
	cases := []struct {
		cfg   cpu.Config
		mixes []string
	}{
		{cpu.Config2B2S, []string{"Sync-2", "Rand-7"}},
		{cpu.Config2B2M2S, []string{"Sync-2", "Rand-7"}},
		// The 288-thread mix is perfbench's numa-bigmachine mix, whose
		// linux runs skip counters by the machine's default.
		{cpu.Config2x32B32M64S, []string{"Sync-2", "Rand-7", "ferret:32+bodytrack:32+radix:32+fft:32", "radix:96+fft:96+ocean_cp:96"}},
	}
	var blind []string
	for _, name := range policy.Names() {
		if !policy.NeedsSpeedup(name) {
			blind = append(blind, name)
		}
	}
	if len(blind) != 4 {
		t.Fatalf("predictor-blind built-ins = %v, want linux, gts, eas and colab-oracle", blind)
	}
	run := func(cfg cpu.Config, name, mix string, counters bool) (*kernel.Result, uint64, *task.Workload) {
		t.Helper()
		spec, err := workload.ResolveSpec(mix)
		if err != nil {
			t.Fatal(err)
		}
		w, err := spec.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := kernel.NewMachine(cfg, builtin(name)(), w, kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		m.SetTracer(func(e kernel.TraceEvent) { fmt.Fprintln(h, e.String()) })
		m.SetCounters(counters)
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s on %s under %s: %v", mix, cfg.Name, name, err)
		}
		return res, h.Sum64(), w
	}
	for _, c := range cases {
		for _, mix := range c.mixes {
			for _, name := range blind {
				on, onTrace, wOn := run(c.cfg, name, mix, true)
				off, offTrace, wOff := run(c.cfg, name, mix, false)
				if !reflect.DeepEqual(on, off) {
					t.Errorf("%s on %s under %s: Result differs without counters", mix, c.cfg.Name, name)
				}
				if onTrace != offTrace {
					t.Errorf("%s on %s under %s: trace differs without counters", mix, c.cfg.Name, name)
				}
				for i, th := range wOff.Threads() {
					if th.TotalCounters != (cpu.Vec{}) || th.IntervalCounters != (cpu.Vec{}) {
						t.Fatalf("%s on %s under %s: thread %s has counters without synthesis", mix, c.cfg.Name, name, th.Name)
					}
					if wOn.Threads()[i].TotalCounters[cpu.CtrCommittedInsts] <= 0 {
						t.Fatalf("%s on %s under %s: thread %s has no counters with synthesis", mix, c.cfg.Name, name, th.Name)
					}
				}
			}
		}
	}
}
