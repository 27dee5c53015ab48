package kernel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/policy"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/topo"
)

// numaWorkload is a small multi-app scenario that forces cross-core (and,
// on NUMA shapes, cross-domain) traffic: more threads than cores, a
// producer/consumer pipe and an open-system straggler.
func numaWorkload() *task.Workload {
	var profiles []cpu.WorkProfile
	var progs []task.Program
	for i := 0; i < 6; i++ {
		p := fastProfile
		if i%2 == 0 {
			p = slowProfile
		}
		profiles = append(profiles, p)
		progs = append(progs, task.Program{task.Compute{Work: float64(3+i%4) * 1e6}})
	}
	wide := mkApp(0, "wide", profiles, progs)

	var prod, cons task.Program
	for i := 0; i < 3; i++ {
		prod = append(prod, task.Compute{Work: 1e6}, task.Put{ID: 1})
		cons = append(cons, task.Get{ID: 1}, task.Compute{Work: 1e6})
	}
	pipe := mkApp(1, "pipe", []cpu.WorkProfile{fastProfile, slowProfile},
		[]task.Program{prod, cons}, task.QueueSpec{ID: 1, Capacity: 2})
	pipe.Arrival = 1 * sim.Millisecond

	late := mkApp(2, "late", []cpu.WorkProfile{fastProfile, fastProfile},
		[]task.Program{{task.Compute{Work: 4e6}}, {task.Compute{Work: 4e6}}})
	late.Arrival = 3 * sim.Millisecond

	return &task.Workload{Name: "numa-mix", Apps: []*task.App{wide, pipe, late}}
}

func numaPolicies() map[string]func() kernel.Scheduler {
	return map[string]func() kernel.Scheduler{
		"linux": builtin(policy.Linux),
		"wash":  builtin(policy.WASH),
		"gts":   builtin(policy.GTS),
		"colab": builtin(policy.COLAB),
	}
}

func traceOf(t *testing.T, cfg cpu.Config, mk func() kernel.Scheduler, w *task.Workload) (string, *kernel.Result) {
	t.Helper()
	var sb strings.Builder
	m, err := kernel.NewMachine(cfg, mk(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	m.SetTracer(func(e kernel.TraceEvent) { fmt.Fprintln(&sb, e.String()) })
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sb.String(), res
}

// TestZeroCostTopologyBitIdentical is the reduction guarantee: a NUMA
// machine with migration cost zero is one domain of every core, so every
// built-in policy schedules it bit-identically (full trace and Result) to
// the same core layout with no topology at all.
func TestZeroCostTopologyBitIdentical(t *testing.T) {
	zero := cpu.Config2x2B2S.WithMigrationCost(0)
	flat := cpu.Config2x2B2S.Flat()
	m, err := kernel.NewMachine(zero, cfs.New(), numaWorkload(), kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDomains() != 1 || m.DomainOf(5) != 0 {
		t.Fatalf("zero-cost NUMA machine: NumDomains = %d, DomainOf(5) = %d; want one domain", m.NumDomains(), m.DomainOf(5))
	}
	for _, name := range policy.Names() {
		zw := numaWorkload()
		zt, zres := traceOf(t, zero, builtin(name), zw)
		ft, fres := traceOf(t, flat, builtin(name), numaWorkload())
		if zt != ft {
			t.Errorf("%s: zero-cost NUMA trace differs from flat machine", name)
		}
		zj, err := json.Marshal(zres)
		if err != nil {
			t.Fatal(err)
		}
		fj, err := json.Marshal(fres)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(zj, fj) {
			t.Errorf("%s: zero-cost NUMA Result differs from flat machine", name)
		}
		for _, th := range zw.Threads() {
			if th.HomeDomain != 0 {
				t.Errorf("%s: thread %v placed in home domain %d on a one-domain machine", name, th, th.HomeDomain)
			}
		}
	}
}

// TestNUMATraceDeterministic pins run-to-run determinism of the
// topology-aware paths (home-domain placement, domain-ranked steal, the
// ranked WASH arm) on an active NUMA palette.
func TestNUMATraceDeterministic(t *testing.T) {
	for name, mk := range numaPolicies() {
		a, _ := traceOf(t, cpu.Config2x2B2S, mk, numaWorkload())
		b, _ := traceOf(t, cpu.Config2x2B2S, mk, numaWorkload())
		if a != b {
			t.Errorf("%s: NUMA trace differs across identical runs", name)
		}
		if a == "" {
			t.Errorf("%s: empty trace", name)
		}
	}
}

// TestMigrationPenaltyCharged uses a machine where every migration is
// cross-domain — two cores, one per socket — and three CPU-bound threads,
// so the idle-balance steals that share the cores sit on the critical
// path. The penalised run must record cross-domain hops and finish
// strictly later than the free one; on this shape the steal order itself
// cannot differ (only one other queue exists), so the delta is purely the
// charged penalty.
func TestMigrationPenaltyCharged(t *testing.T) {
	run := func(cycles float64) *kernel.Result {
		cfg := cpu.NewSymmetric(cpu.Big, 2).WithTopology(topo.Uniform(2, 1, 1, cycles))
		var progs []task.Program
		var profiles []cpu.WorkProfile
		// Long enough that the doubled-up core rotates its two threads
		// through several slices before the solo core idles and steals —
		// the stolen thread must have *run* on its old core for the move
		// to count as a migration.
		for i := 0; i < 3; i++ {
			profiles = append(profiles, fastProfile)
			progs = append(progs, task.Program{task.Compute{Work: 40e6}})
		}
		w := &task.Workload{Name: "cross", Apps: []*task.App{mkApp(0, "cross", profiles, progs)}}
		m, err := kernel.NewMachine(cfg, cfs.New(), w, kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// 40M cycles ≈ 20ms at the big tier's clock: large enough that the
	// stolen thread's penalised finish dominates the makespan.
	free, dear := run(0), run(40e6)
	hops := 0
	for _, th := range dear.Threads {
		hops += th.CrossDomainHops
	}
	if hops == 0 {
		t.Fatalf("no cross-domain hops recorded on an active NUMA machine")
	}
	for _, th := range free.Threads {
		if th.CrossDomainHops != 0 {
			t.Fatalf("zero-cost run recorded cross-domain hops")
		}
	}
	if dear.EndTime <= free.EndTime {
		t.Fatalf("migration penalty did not slow the run: %v (cost 400k cycles) vs %v (free)", dear.EndTime, free.EndTime)
	}
}

// TestHomeDomainPlacement checks admission round-robins apps across LLC
// domains and threads inherit the app's home.
func TestHomeDomainPlacement(t *testing.T) {
	w := numaWorkload()
	m, err := kernel.NewMachine(cpu.Config2x2B2S, cfs.New(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	homes := map[string]int{}
	for _, a := range w.Apps {
		for i, th := range a.Threads {
			if i == 0 {
				homes[a.Name] = th.HomeDomain
			} else if th.HomeDomain != homes[a.Name] {
				t.Fatalf("app %s threads span home domains %d and %d", a.Name, homes[a.Name], th.HomeDomain)
			}
		}
	}
	// Admission order: wide (t=0) -> domain 0, pipe (1ms) -> domain 1,
	// late (3ms) -> domain 0 again.
	if homes["wide"] != 0 || homes["pipe"] != 1 || homes["late"] != 0 {
		t.Fatalf("round-robin placement drifted: %v", homes)
	}
}

// TestMachineTopologyAccessors covers the queries stages build on.
func TestMachineTopologyAccessors(t *testing.T) {
	m, err := kernel.NewMachine(cpu.Config2x2B2S, cfs.New(), numaWorkload(), kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumDomains() != 2 {
		t.Fatalf("NumDomains = %d", m.NumDomains())
	}
	if m.DomainOf(0) != 0 || m.DomainOf(5) != 1 {
		t.Fatalf("DomainOf mapping wrong: %d %d", m.DomainOf(0), m.DomainOf(5))
	}
	if d := m.DomainDistance(0, 1); d != 2 {
		t.Fatalf("cross-socket distance = %d, want 2", d)
	}
	if m.DomainOf(6) != 1 {
		t.Fatalf("DomainOf(6) = %d", m.DomainOf(6))
	}
	if got := m.DomainCoreIDs(1); len(got) != 4 || got[0] != 4 {
		t.Fatalf("DomainCoreIDs(1) = %v", got)
	}
	top := m.TopTier()
	if got := m.DomainTierCoreIDs(1, top); !slices.Equal(got, []int{4, 5}) {
		t.Fatalf("DomainTierCoreIDs(1, big) = %v, want [4 5]", got)
	}
	if got := m.TierMask(top).String(); got != "{0,1,4,5}" {
		t.Fatalf("TierMask(big) = %s, want {0,1,4,5}", got)
	}
	for d := 0; d < m.NumDomains(); d++ {
		var union []int
		for tier := 0; tier < m.NumTiers(); tier++ {
			for _, id := range m.DomainTierCoreIDs(d, tier) {
				if int(m.Cores()[id].Kind) != tier || m.DomainOf(id) != d {
					t.Fatalf("DomainTierCoreIDs(%d, %d) holds core %d of tier %d, domain %d", d, tier, id, m.Cores()[id].Kind, m.DomainOf(id))
				}
			}
			union = append(union, m.DomainTierCoreIDs(d, tier)...)
		}
		slices.Sort(union)
		if !slices.Equal(union, m.DomainCoreIDs(d)) {
			t.Fatalf("domain %d: tier lists %v do not partition DomainCoreIDs %v", d, union, m.DomainCoreIDs(d))
		}
	}

	// Flat machine: accessors answer the single implicit domain.
	fm, err := kernel.NewMachine(cpu.Config4B4S, cfs.New(), numaWorkload(), kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if fm.NumDomains() != 1 || fm.DomainOf(3) != 0 || fm.DomainDistance(0, 0) != 0 {
		t.Fatalf("flat machine topology accessors drifted")
	}

	// Symmetric all-big machine: the base tier is unpopulated.
	sm, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Big, 4), cfs.New(), numaWorkload(), kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if !sm.TierMask(0).IsEmpty() || len(sm.TierCoreIDs(0)) != 0 || len(sm.DomainTierCoreIDs(0, 0)) != 0 {
		t.Fatalf("symmetric machine base tier: mask %s, ids %v, domain ids %v; want empty",
			sm.TierMask(0), sm.TierCoreIDs(0), sm.DomainTierCoreIDs(0, 0))
	}
	if got := sm.TierMask(sm.TopTier()).String(); got != "{0,1,2,3}" {
		t.Fatalf("symmetric machine TierMask(top) = %s", got)
	}
}
