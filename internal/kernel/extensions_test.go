package kernel_test

import (
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/policy"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
)

func TestTraceCapturesLifecycle(t *testing.T) {
	prog0 := task.Program{task.Lock{ID: 1}, task.Compute{Work: 5e6}, task.Unlock{ID: 1}}
	prog1 := task.Program{task.Compute{Work: 0.1e6}, task.Lock{ID: 1}, task.Unlock{ID: 1}}
	app := mkApp(0, "tr", []cpu.WorkProfile{slowProfile, slowProfile}, []task.Program{prog0, prog1})
	w := &task.Workload{Name: "tr", Apps: []*task.App{app}}
	m, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 2), cfs.New(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	var events []kernel.TraceEvent
	m.SetTracer(func(e kernel.TraceEvent) { events = append(events, e) })
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	counts := map[kernel.TraceKind]int{}
	var lastAt sim.Time
	firstDispatch, firstDone := -1, -1
	for i, e := range events {
		counts[e.Kind]++
		if e.At < lastAt {
			t.Fatalf("trace time went backwards at %d", i)
		}
		lastAt = e.At
		if e.Kind == kernel.TraceDispatch && firstDispatch < 0 {
			firstDispatch = i
		}
		if e.Kind == kernel.TraceDone && firstDone < 0 {
			firstDone = i
		}
	}
	if counts[kernel.TraceDispatch] == 0 || counts[kernel.TraceDone] != 2 {
		t.Fatalf("trace counts: %v", counts)
	}
	if counts[kernel.TraceBlock] == 0 || counts[kernel.TraceWake] == 0 {
		t.Fatalf("lock contention left no block/wake events: %v", counts)
	}
	if firstDone < firstDispatch {
		t.Fatalf("done before any dispatch")
	}
	// Every wake pairs with a block.
	if counts[kernel.TraceWake] > counts[kernel.TraceBlock] {
		t.Fatalf("more wakes (%d) than blocks (%d)", counts[kernel.TraceWake], counts[kernel.TraceBlock])
	}
	// Event rendering must be stable and informative.
	if s := events[firstDispatch].String(); !strings.Contains(s, "dispatch") {
		t.Fatalf("trace line %q", s)
	}
}

func TestEnergyAccounting(t *testing.T) {
	mk := func() *task.Workload {
		app := mkApp(0, "e", []cpu.WorkProfile{slowProfile}, []task.Program{{task.Compute{Work: 100e6}}})
		return &task.Workload{Name: "e", Apps: []*task.App{app}}
	}
	little := runOn(t, cpu.NewSymmetric(cpu.Little, 1), cfs.New(), mk())
	big := runOn(t, cpu.NewSymmetric(cpu.Big, 1), cfs.New(), mk())
	if little.TotalEnergyJ() <= 0 || big.TotalEnergyJ() <= 0 {
		t.Fatalf("no energy accounted")
	}
	// The memory-bound thread gains little from big cores, so burning the
	// big core's power budget on it must cost more energy.
	if big.TotalEnergyJ() <= little.TotalEnergyJ() {
		t.Fatalf("big-core run cheaper than little: %v J vs %v J",
			big.TotalEnergyJ(), little.TotalEnergyJ())
	}
	// Busy+idle per core must cover the whole makespan.
	for _, c := range little.Cores {
		if got := c.BusyTime + c.IdleTime; got < little.EndTime-sim.Microsecond {
			t.Fatalf("core time %v does not cover makespan %v", got, little.EndTime)
		}
	}
	if little.EnergyDelayProduct() <= 0 {
		t.Fatalf("EDP must be positive")
	}
}

func TestCustomPowerModel(t *testing.T) {
	app := mkApp(0, "p", []cpu.WorkProfile{slowProfile}, []task.Program{{task.Compute{Work: 10e6}}})
	w := &task.Workload{Name: "p", Apps: []*task.App{app}}
	m, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 1), cfs.New(), w,
		kernel.Params{Power: cpu.PowerModel{LittleBusyW: 100, LittleIdleW: 1, BigBusyW: 1, BigIdleW: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 10ms at 100W ~ 1J.
	if e := res.TotalEnergyJ(); e < 0.9 || e > 1.2 {
		t.Fatalf("custom power model ignored: %v J", e)
	}
}

func TestPhaseOpSwitchesProfile(t *testing.T) {
	hot := cpu.WorkProfile{ILP: 0.9, MemIntensity: 0.05, FPRate: 0.6}
	cold := cpu.WorkProfile{ILP: 0.1, MemIntensity: 0.95}
	// 20ms in the hot phase then 20ms in the cold phase, on one big core:
	// runtime must reflect the two different execution rates.
	prog := task.Program{
		task.Phase{Profile: hot},
		task.Compute{Work: 20e6},
		task.Phase{Profile: cold},
		task.Compute{Work: 20e6},
	}
	app := mkApp(0, "ph", []cpu.WorkProfile{hot}, []task.Program{prog})
	w := &task.Workload{Name: "ph", Apps: []*task.App{app}}
	res := runOn(t, cpu.NewSymmetric(cpu.Big, 1), cfs.New(), w)
	want := 20e6/hot.TrueSpeedup() + 20e6/cold.TrueSpeedup()
	got := float64(res.EndTime)
	if got < want*0.98 || got > want*1.05 {
		t.Fatalf("phased runtime %v, want ~%.0fns", res.EndTime, want)
	}
}

func TestUnlockWithoutOwnershipPanics(t *testing.T) {
	prog := task.Program{task.Unlock{ID: 5}}
	app := mkApp(0, "bad", []cpu.WorkProfile{slowProfile}, []task.Program{prog})
	w := &task.Workload{Name: "bad", Apps: []*task.App{app}}
	m, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 1), cfs.New(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("unlock without ownership must panic (generator bug detector)")
		}
	}()
	_, _ = m.Run()
}

func TestBarrierWithOneParty(t *testing.T) {
	prog := task.Program{task.Barrier{ID: 1, Parties: 1}, task.Compute{Work: 1e6}}
	app := mkApp(0, "b1", []cpu.WorkProfile{slowProfile}, []task.Program{prog})
	w := &task.Workload{Name: "b1", Apps: []*task.App{app}}
	res := runOn(t, cpu.NewSymmetric(cpu.Little, 1), cfs.New(), w)
	if res.Threads[0].BlockedTime != 0 {
		t.Fatalf("single-party barrier must not block")
	}
}

func TestSleepOpBlocksWithoutBlame(t *testing.T) {
	prog := task.Program{task.Compute{Work: 1e6}, task.Sleep{Duration: 5 * sim.Millisecond}, task.Compute{Work: 1e6}}
	app := mkApp(0, "sl", []cpu.WorkProfile{slowProfile}, []task.Program{prog})
	w := &task.Workload{Name: "sl", Apps: []*task.App{app}}
	res := runOn(t, cpu.NewSymmetric(cpu.Little, 1), cfs.New(), w)
	if res.Threads[0].BlockedTime < 5*sim.Millisecond {
		t.Fatalf("sleep not accounted: %v", res.Threads[0].BlockedTime)
	}
	if res.Threads[0].BlockBlame != 0 {
		t.Fatalf("sleep must not create blame")
	}
	if res.EndTime < 7*sim.Millisecond {
		t.Fatalf("end %v too early", res.EndTime)
	}
}

func TestMigrationCostCharged(t *testing.T) {
	// One thread forced to migrate: pin to core 0, then the scheduler moves
	// it via stealing when core 0 is overloaded. Simpler: two threads on
	// two cores with migration cost 0 vs high must differ in makespan when
	// threads bounce. Use three threads on two cores (steals guaranteed).
	mk := func() *task.Workload {
		var progs []task.Program
		var profs []cpu.WorkProfile
		for i := 0; i < 3; i++ {
			progs = append(progs, task.Program{task.Compute{Work: 30e6}})
			profs = append(profs, slowProfile)
		}
		app := mkApp(0, "mig", profs, progs)
		return &task.Workload{Name: "mig", Apps: []*task.App{app}}
	}
	cheap, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 2), cfs.New(), mk(),
		kernel.Params{MigrationCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	resCheap, err := cheap.Run()
	if err != nil {
		t.Fatal(err)
	}
	dear, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 2), cfs.New(), mk(),
		kernel.Params{MigrationCost: 2 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	resDear, err := dear.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resCheap.TotalMigrations == 0 {
		t.Fatalf("scenario produced no migrations")
	}
	if resDear.EndTime <= resCheap.EndTime {
		t.Fatalf("expensive migrations not charged: %v vs %v", resDear.EndTime, resCheap.EndTime)
	}
}

// Failure injection / fuzz: random well-formed programs must always
// complete under every scheduler, conserve work, and never deadlock.
func TestFuzzRandomWorkloadsAllSchedulers(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := mathx.NewRNG(seed)
		w := randomWorkload(rng)
		want := -1.0
		for _, mk := range schedFactories() {
			// Regenerate the identical workload for each scheduler.
			w2 := randomWorkload(mathx.NewRNG(seed))
			s := mk()
			cfgs := cpu.EvaluatedConfigs()
			cfg := cfgs[rng.IntN(len(cfgs))]
			m, err := kernel.NewMachine(cfg, s, w2, kernel.Params{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
			}
			// Continuously validate machine invariants between events.
			var events int
			m.Engine().PostStep = func() {
				events++
				if events%23 == 0 {
					if v := m.CheckInvariants(); len(v) > 0 {
						t.Fatalf("seed %d %s invariants: %v", seed, s.Name(), v)
					}
				}
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("seed %d %s on %s: %v", seed, s.Name(), cfg.Name, err)
			}
			if v := m.CheckInvariants(); len(v) > 0 {
				t.Fatalf("seed %d %s final invariants: %v", seed, s.Name(), v)
			}
			total := 0.0
			for _, th := range res.Threads {
				total += th.WorkDone
			}
			if want < 0 {
				want = totalWork(w)
			}
			if total < want*0.999 || total > want*1.001 {
				t.Fatalf("seed %d %s: retired %v of %v work", seed, s.Name(), total, want)
			}
		}
	}
}

func totalWork(w *task.Workload) float64 {
	total := 0.0
	for _, th := range w.Threads() {
		total += th.Program.TotalWork()
	}
	return total
}

// randomWorkload emits 1-3 apps of structurally valid random programs:
// barrier-phased compute with optional lock pairs and queue ping-pongs.
func randomWorkload(rng *mathx.RNG) *task.Workload {
	w := &task.Workload{Name: "fuzz"}
	nApps := 1 + rng.IntN(3)
	for a := 0; a < nApps; a++ {
		app := &task.App{ID: a, Name: "fz"}
		n := 1 + rng.IntN(6)
		phases := 1 + rng.IntN(5)
		useLocks := rng.Float64() < 0.5
		bar := 1
		for i := 0; i < n; i++ {
			prof := cpu.WorkProfile{
				ILP:          rng.Float64(),
				BranchRate:   rng.Range(0, 0.3),
				MemIntensity: rng.Float64(),
				StoreRate:    rng.Float64(),
				FPRate:       rng.Float64(),
			}
			var prog task.Program
			for ph := 0; ph < phases; ph++ {
				prog = append(prog, task.Compute{Work: rng.Range(0.1e6, 8e6)})
				if useLocks && rng.Float64() < 0.7 {
					prog = append(prog,
						task.Lock{ID: 99},
						task.Compute{Work: rng.Range(0.01e6, 0.5e6)},
						task.Unlock{ID: 99})
				}
				if rng.Float64() < 0.3 {
					prog = append(prog, task.Sleep{Duration: sim.Time(rng.IntN(2_000_000))})
				}
				if n > 1 {
					prog = append(prog, task.Barrier{ID: bar, Parties: n})
				}
			}
			app.Threads = append(app.Threads, &task.Thread{App: app, Name: "t", Profile: prof, Program: prog})
		}
		w.Apps = append(w.Apps, app)
	}
	return w
}

func schedFactories() []func() kernel.Scheduler {
	return []func() kernel.Scheduler{
		builtin(policy.Linux),
		builtin(policy.WASH),
		builtin(policy.COLAB),
		builtin(policy.GTS),
	}
}

// Every task.Phase op must refresh the thread's prepared accrual state
// (invariant 9): threads cycling through three profiles on the tri-gear
// machine, with invariants checked after every event.
func TestPhaseRefreshKeepsPreparedState(t *testing.T) {
	profiles := []cpu.WorkProfile{
		{ILP: 0.9, BranchRate: 0.1, MemIntensity: 0.05, FPRate: 0.6},
		{ILP: 0.1, BranchRate: 0.05, MemIntensity: 0.95, StoreRate: 0.5},
		{ILP: 0.5, BranchRate: 0.2, MemIntensity: 0.4, CodeFootprint: 0.7},
	}
	var progs []task.Program
	var initial []cpu.WorkProfile
	for i := 0; i < 8; i++ {
		var prog task.Program
		for ph := 0; ph < 6; ph++ {
			prog = append(prog,
				task.Phase{Profile: profiles[(i+ph)%len(profiles)]},
				task.Compute{Work: float64(1+ph%3) * 2e6},
				task.Barrier{ID: 1, Parties: 8})
		}
		progs = append(progs, prog)
		initial = append(initial, profiles[(i+2)%len(profiles)])
	}
	for _, mk := range schedFactories() {
		w := &task.Workload{Name: "phases", Apps: []*task.App{mkApp(0, "ph", initial, progs)}}
		s := mk()
		m, err := kernel.NewMachine(cpu.Config2B2M2S, s, w, kernel.Params{})
		if err != nil {
			t.Fatal(err)
		}
		if v := m.CheckInvariants(); len(v) > 0 {
			t.Fatalf("%s before start: %v", s.Name(), v)
		}
		m.Engine().PostStep = func() {
			if v := m.CheckInvariants(); len(v) > 0 {
				t.Fatalf("%s at %v: %v", s.Name(), m.Now(), v)
			}
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}
