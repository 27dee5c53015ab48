package kernel_test

import (
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/policy"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// builtin returns a constructor of the registered built-in policy name
// with a neutral context.
func builtin(name string) func() kernel.Scheduler {
	return func() kernel.Scheduler {
		s, err := policy.New(name, policy.Context{})
		if err != nil {
			panic(err)
		}
		return s
	}
}

// mkApp builds a one-off application from thread programs.
func mkApp(id int, name string, profiles []cpu.WorkProfile, progs []task.Program, queues ...task.QueueSpec) *task.App {
	app := &task.App{ID: id, Name: name, Queues: queues}
	for i, p := range progs {
		app.Threads = append(app.Threads, &task.Thread{
			App:     app,
			Name:    name + "-t" + string(rune('0'+i)),
			Profile: profiles[i],
			Program: p,
		})
	}
	return app
}

var (
	fastProfile = cpu.WorkProfile{ILP: 0.9, BranchRate: 0.1, MemIntensity: 0.1, FPRate: 0.5}
	slowProfile = cpu.WorkProfile{ILP: 0.2, BranchRate: 0.05, MemIntensity: 0.9, FPRate: 0.1}
)

func runOn(t *testing.T, cfg cpu.Config, s kernel.Scheduler, w *task.Workload) *kernel.Result {
	t.Helper()
	m, err := kernel.NewMachine(cfg, s, w, kernel.Params{})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleThreadComputeOnLittle(t *testing.T) {
	const work = 10e6 // 10ms of little-core work
	app := mkApp(0, "solo", []cpu.WorkProfile{fastProfile}, []task.Program{{task.Compute{Work: work}}})
	w := &task.Workload{Name: "solo", Apps: []*task.App{app}}
	res := runOn(t, cpu.NewSymmetric(cpu.Little, 1), cfs.New(), w)
	got := res.Apps[0].Turnaround
	// One work unit = 1ns on little; allow switch cost and rounding slack.
	if got < 10*sim.Millisecond || got > 10*sim.Millisecond+sim.Millisecond {
		t.Fatalf("turnaround on little = %v, want ~10ms", got)
	}
}

func TestSingleThreadComputeFasterOnBig(t *testing.T) {
	const work = 10e6
	mk := func() *task.Workload {
		app := mkApp(0, "solo", []cpu.WorkProfile{fastProfile}, []task.Program{{task.Compute{Work: work}}})
		return &task.Workload{Name: "solo", Apps: []*task.App{app}}
	}
	little := runOn(t, cpu.NewSymmetric(cpu.Little, 1), cfs.New(), mk())
	big := runOn(t, cpu.NewSymmetric(cpu.Big, 1), cfs.New(), mk())
	ratio := float64(little.Apps[0].Turnaround) / float64(big.Apps[0].Turnaround)
	want := fastProfile.TrueSpeedup()
	if ratio < want*0.95 || ratio > want*1.05 {
		t.Fatalf("big/little speedup = %.3f, want ~%.3f", ratio, want)
	}
}

func TestLockContentionAssignsBlame(t *testing.T) {
	// Thread 0 grabs the lock and computes 20ms inside it; thread 1 blocks
	// on the same lock almost immediately. Thread 0 must accumulate
	// blocking blame close to thread 1's wait.
	prog0 := task.Program{task.Lock{ID: 1}, task.Compute{Work: 20e6}, task.Unlock{ID: 1}}
	prog1 := task.Program{task.Compute{Work: 0.1e6}, task.Lock{ID: 1}, task.Unlock{ID: 1}, task.Compute{Work: 1e6}}
	app := mkApp(0, "locky", []cpu.WorkProfile{slowProfile, slowProfile}, []task.Program{prog0, prog1})
	w := &task.Workload{Name: "locky", Apps: []*task.App{app}}
	res := runOn(t, cpu.NewSymmetric(cpu.Little, 2), cfs.New(), w)

	blame := res.Threads[0].BlockBlame
	blocked := res.Threads[1].BlockedTime
	if blame <= 0 {
		t.Fatalf("lock holder got no blame; blocked thread waited %v", blocked)
	}
	if blame != blocked {
		t.Fatalf("blame (%v) != waiter blocked time (%v)", blame, blocked)
	}
	if blame < 15*sim.Millisecond {
		t.Fatalf("blame %v too small, want ~20ms", blame)
	}
}

func TestBarrierReleasesAllAndBlamesLastArriver(t *testing.T) {
	// Thread 0 computes 3x longer, so it arrives last at the barrier and
	// should carry the blame for both waiters.
	progs := []task.Program{
		{task.Compute{Work: 30e6}, task.Barrier{ID: 7, Parties: 3}, task.Compute{Work: 1e6}},
		{task.Compute{Work: 10e6}, task.Barrier{ID: 7, Parties: 3}, task.Compute{Work: 1e6}},
		{task.Compute{Work: 10e6}, task.Barrier{ID: 7, Parties: 3}, task.Compute{Work: 1e6}},
	}
	app := mkApp(0, "barrier", []cpu.WorkProfile{slowProfile, slowProfile, slowProfile}, progs)
	w := &task.Workload{Name: "barrier", Apps: []*task.App{app}}
	res := runOn(t, cpu.NewSymmetric(cpu.Little, 3), cfs.New(), w)
	if res.Threads[0].BlockBlame <= res.Threads[1].BlockBlame {
		t.Fatalf("slow arriver blame %v not greater than fast thread blame %v",
			res.Threads[0].BlockBlame, res.Threads[1].BlockBlame)
	}
	if res.Threads[0].BlockBlame < 30*sim.Millisecond {
		t.Fatalf("last arriver blame %v, want >= ~2x20ms", res.Threads[0].BlockBlame)
	}
}

func TestBoundedQueueProducerConsumer(t *testing.T) {
	const items = 20
	var prod, cons task.Program
	for i := 0; i < items; i++ {
		prod = append(prod, task.Compute{Work: 0.5e6}, task.Put{ID: 3})
		cons = append(cons, task.Get{ID: 3}, task.Compute{Work: 1e6})
	}
	app := mkApp(0, "pipe", []cpu.WorkProfile{slowProfile, slowProfile}, []task.Program{prod, cons},
		task.QueueSpec{ID: 3, Capacity: 2})
	w := &task.Workload{Name: "pipe", Apps: []*task.App{app}}
	res := runOn(t, cpu.NewSymmetric(cpu.Little, 2), cfs.New(), w)
	// Consumer is slower, so the producer must have blocked on the full
	// queue and been blamed by the consumer's Get.
	if res.Threads[0].BlockedTime == 0 {
		t.Fatalf("producer never blocked on the bounded queue")
	}
	if res.Threads[1].BlockBlame == 0 {
		t.Fatalf("consumer freed the producer but got no blame")
	}
}

func TestDeadlockIsDetected(t *testing.T) {
	// A thread blocking on a lock nobody releases must fail the run, not
	// hang it.
	prog0 := task.Program{task.Lock{ID: 1}, task.Compute{Work: 1e6}} // never unlocks
	prog1 := task.Program{task.Compute{Work: 0.1e6}, task.Lock{ID: 1}, task.Unlock{ID: 1}}
	app := mkApp(0, "dead", []cpu.WorkProfile{slowProfile, slowProfile}, []task.Program{prog0, prog1})
	w := &task.Workload{Name: "dead", Apps: []*task.App{app}}
	m, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 2), cfs.New(), w, kernel.Params{})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestWorkloadReuseRejected(t *testing.T) {
	app := mkApp(0, "solo", []cpu.WorkProfile{fastProfile}, []task.Program{{task.Compute{Work: 1e6}}})
	w := &task.Workload{Name: "solo", Apps: []*task.App{app}}
	runOn(t, cpu.NewSymmetric(cpu.Little, 1), cfs.New(), w)
	if _, err := kernel.NewMachine(cpu.NewSymmetric(cpu.Little, 1), cfs.New(), w, kernel.Params{}); err == nil {
		t.Fatalf("reusing a finished workload must be rejected")
	}
}

// TestAllSchedulersCompleteMixes runs a real Table 4 composition under all
// four policies on all four configs and checks structural sanity.
func TestAllSchedulersCompleteMixes(t *testing.T) {
	for _, idx := range []string{"Sync-1", "NSync-3", "Comm-2", "Rand-5"} {
		comp, ok := workload.CompositionByIndex(idx)
		if !ok {
			t.Fatalf("composition %s missing", idx)
		}
		for _, cfg := range cpu.EvaluatedConfigs() {
			for _, mkSched := range []func() kernel.Scheduler{
				builtin(policy.Linux),
				builtin(policy.WASH),
				builtin(policy.COLAB),
				builtin(policy.GTS),
			} {
				s := mkSched()
				w, err := comp.Spec().Build(99)
				if err != nil {
					t.Fatalf("%s build: %v", idx, err)
				}
				m, err := kernel.NewMachine(cfg, s, w, kernel.Params{})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", idx, cfg.Name, s.Name(), err)
				}
				res, err := m.Run()
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", idx, cfg.Name, s.Name(), err)
				}
				for _, a := range res.Apps {
					if a.Turnaround <= 0 {
						t.Errorf("%s/%s/%s: app %s turnaround %v", idx, cfg.Name, s.Name(), a.Name, a.Turnaround)
					}
				}
				var busy sim.Time
				for _, c := range res.Cores {
					busy += c.BusyTime
				}
				if busy == 0 {
					t.Errorf("%s/%s/%s: no core did any work", idx, cfg.Name, s.Name())
				}
			}
		}
	}
}

// TestWorkConservation verifies no core idles while ready threads wait for
// long stretches: with 8 independent equal threads on 4 cores, total idle
// time before the last completion must be tiny.
func TestWorkConservation(t *testing.T) {
	var progs []task.Program
	var profs []cpu.WorkProfile
	for i := 0; i < 8; i++ {
		progs = append(progs, task.Program{task.Compute{Work: 20e6}})
		profs = append(profs, slowProfile)
	}
	app := mkApp(0, "par", profs, progs)
	w := &task.Workload{Name: "par", Apps: []*task.App{app}}
	res := runOn(t, cpu.NewSymmetric(cpu.Little, 4), cfs.New(), w)
	for _, c := range res.Cores {
		// 8x20ms over 4 cores = 40ms/core; idle should be a rounding sliver.
		if c.IdleTime > 2*sim.Millisecond {
			t.Errorf("cpu%d idle %v during saturated run", c.ID, c.IdleTime)
		}
	}
}
