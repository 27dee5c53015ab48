package kernel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/policy"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// bigOpenWorkload is the 128-core determinism scenario: a wide closed app
// saturating more than 64 cores at time zero (so run-queue and affinity
// state reach mask words past core 63 from the first dispatch), a
// producer/consumer app arriving mid-run, and a straggler arriving after
// the first wave thins out.
func bigOpenWorkload() *task.Workload {
	var profiles []cpu.WorkProfile
	var progs []task.Program
	for i := 0; i < 96; i++ {
		p := fastProfile
		if i%3 == 0 {
			p = slowProfile
		}
		profiles = append(profiles, p)
		progs = append(progs, task.Program{task.Compute{Work: float64(4+i%5) * 1e6}})
	}
	wide := mkApp(0, "wide", profiles, progs)

	var prod, cons task.Program
	for i := 0; i < 4; i++ {
		prod = append(prod, task.Compute{Work: 2e6}, task.Put{ID: 1})
		cons = append(cons, task.Get{ID: 1}, task.Compute{Work: 2e6})
	}
	pipe := mkApp(1, "pipe", []cpu.WorkProfile{fastProfile, slowProfile},
		[]task.Program{prod, cons}, task.QueueSpec{ID: 1, Capacity: 2})
	pipe.Arrival = 2 * sim.Millisecond

	late := mkApp(2, "late", []cpu.WorkProfile{fastProfile, fastProfile},
		[]task.Program{{task.Compute{Work: 6e6}}, {task.Compute{Work: 6e6}}})
	late.Arrival = 5 * sim.Millisecond

	return &task.Workload{Name: "big-open", Apps: []*task.App{wide, pipe, late}}
}

// TestBigMachineTraceDeterministic runs the 128-core open-system scenario
// under all five policies and requires the full scheduling trace to be
// byte-identical across repeated runs: beyond-64-core masks, open-system
// admission and the allocation-free dispatch path must not introduce any
// map-order or pointer-order dependence.
func TestBigMachineTraceDeterministic(t *testing.T) {
	names := []string{policy.Linux, policy.WASH, policy.GTS, policy.EAS, policy.COLAB}
	fingerprint := func(name string) string {
		var sb strings.Builder
		m, err := kernel.NewMachine(cpu.Config32B32M64S, builtin(name)(), bigOpenWorkload(), kernel.Params{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m.SetTracer(func(e kernel.TraceEvent) { fmt.Fprintln(&sb, e.String()) })
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, a := range res.Apps {
			if a.Turnaround <= 0 {
				t.Fatalf("%s: app %s unfinished", name, a.Name)
			}
		}
		return sb.String()
	}
	for _, name := range names {
		a, b := fingerprint(name), fingerprint(name)
		if a != b {
			t.Errorf("%s: 128-core trace differs across identical runs", name)
		}
		// More than 64 cores must actually dispatch work, or the mask
		// words past core 63 were never on the executed path.
		seen := map[int]bool{}
		m, err := kernel.NewMachine(cpu.Config32B32M64S, builtin(name)(), bigOpenWorkload(), kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		m.SetTracer(func(e kernel.TraceEvent) {
			if e.Kind == kernel.TraceDispatch || e.Kind == kernel.TraceMigrate {
				seen[e.Core] = true
			}
		})
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		high := 0
		for c := range seen {
			if c >= 64 {
				high++
			}
		}
		if len(seen) <= 64 || high == 0 {
			t.Errorf("%s: only %d cores dispatched (%d above core 63); workload does not cover the big machine", name, len(seen), high)
		}
	}
}

// TestEventBudgetBoundary pins the event budget to one event per
// reschedule although the machine sweeps same-instant reschedules in one
// engine event: on the oversubscribed 256-core NUMA run, a budget of the
// reference run's Result.Events completes with an identical Result, and
// one event less fails on the budget. The reference run must take fewer
// engine steps than it counts events, or no sweep visited two cores.
func TestEventBudgetBoundary(t *testing.T) {
	const oversubscribedMix = "radix:96+fft:96+ocean_cp:96"
	cfg := cpu.Config2x32B32M64S
	spec, err := workload.ResolveSpec(oversubscribedMix)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{policy.COLAB, policy.Linux} {
		run := func(maxEvents uint64) (*kernel.Result, uint64, error) {
			w, err := spec.BuildFor(1, cfg.AggregateCapacity())
			if err != nil {
				t.Fatal(err)
			}
			m, err := kernel.NewMachine(cfg, builtin(name)(), w, kernel.Params{MaxEvents: maxEvents})
			if err != nil {
				t.Fatal(err)
			}
			var steps uint64
			m.Engine().PostStep = func() { steps++ }
			res, err := m.Run()
			return res, steps, err
		}
		ref, steps, err := run(0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if steps >= ref.Events {
			t.Errorf("%s: %d engine steps for %d counted events; no sweep coalesced", name, steps, ref.Events)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := run(ref.Events)
		if err != nil {
			t.Fatalf("%s: budget of exactly %d events: %v", name, ref.Events, err)
		}
		if got, err := json.Marshal(res); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: Result under a budget of exactly %d events differs from the unbudgeted run (%v)", name, ref.Events, err)
		}
		if _, _, err := run(ref.Events - 1); err == nil || !strings.Contains(err.Error(), "event budget") {
			t.Errorf("%s: budget of %d events, one short of the run: got %v, want an event budget error", name, ref.Events-1, err)
		}
	}
}
