package workload_test

import (
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/workload"
)

// These tests validate that the Table 4 class labels are not just metadata:
// the generated workloads must *behave* according to their class when
// simulated — synchronization-intensive mixes block more, communication-
// intensive mixes move more futex traffic.

func runUnderCFS(t *testing.T, idx string) *kernel.Result {
	t.Helper()
	comp, ok := workload.CompositionByIndex(idx)
	if !ok {
		t.Fatalf("composition %s missing", idx)
	}
	w, err := comp.Spec().Build(11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(cpu.Config4B4S, cfs.New(), w, kernel.Params{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// blockedFraction is the share of total thread lifetime spent futex-blocked.
func blockedFraction(res *kernel.Result) float64 {
	var blocked, exec sim.Time
	for _, th := range res.Threads {
		blocked += th.BlockedTime
		exec += th.SumExec
	}
	if exec == 0 {
		return 0
	}
	return float64(blocked) / float64(blocked+exec)
}

// blamePerExecSecond measures how much cross-thread waiting the workload
// generates per unit of execution — the bottleneck-pressure signal COLAB
// feeds on.
func blamePerExecSecond(res *kernel.Result) float64 {
	var blame, exec sim.Time
	for _, th := range res.Threads {
		blame += th.BlockBlame
		exec += th.SumExec
	}
	if exec == 0 {
		return 0
	}
	return float64(blame) / float64(exec)
}

func TestSyncClassBlocksMoreThanNSync(t *testing.T) {
	// Pair up same-size compositions from the opposing classes.
	pairs := [][2]string{
		{"Sync-1", "NSync-1"}, // both 4 threads
		{"Sync-4", "NSync-4"}, // both 20 threads
	}
	for _, p := range pairs {
		syncRes := runUnderCFS(t, p[0])
		nsyncRes := runUnderCFS(t, p[1])
		sf, nf := blockedFraction(syncRes), blockedFraction(nsyncRes)
		if sf <= nf {
			t.Errorf("%s blocked fraction %.3f not above %s %.3f — class labels do not manifest",
				p[0], sf, p[1], nf)
		}
	}
}

func TestCommClassGeneratesMoreBlameThanComp(t *testing.T) {
	pairs := [][2]string{
		{"Comm-2", "Comp-3"}, // pipeline-heavy vs compute-heavy
		{"Comm-4", "Comp-4"}, // both 20 threads
	}
	for _, p := range pairs {
		commRes := runUnderCFS(t, p[0])
		compRes := runUnderCFS(t, p[1])
		cb, pb := blamePerExecSecond(commRes), blamePerExecSecond(compRes)
		if cb <= pb {
			t.Errorf("%s blame/exec %.4f not above %s %.4f", p[0], cb, p[1], pb)
		}
	}
}

// The very-high-sync benchmark must dominate lock blocking inside a mix
// that contains it (fluidanimate's 100x lock rate, §5.2).
func TestFluidanimateDominatesBlockingInItsMix(t *testing.T) {
	res := runUnderCFS(t, "Sync-2") // dedup(9) + fluidanimate(9)
	perApp := map[string]sim.Time{}
	for _, th := range res.Threads {
		perApp[th.App] += th.BlockBlame
	}
	if perApp["fluidanimate"] == 0 {
		t.Fatalf("fluidanimate generated no blocking blame")
	}
}

// Single-program runs of every benchmark must terminate quickly on every
// config under plain CFS — a guard against generator structures that only
// work on the symmetric training machines.
func TestEveryBenchmarkRunsOnEveryConfig(t *testing.T) {
	for _, b := range workload.All() {
		for _, cfg := range []cpu.Config{cpu.Config2B2S, cpu.Config4B4S} {
			w, err := workload.SingleProgram(b.Name, b.DefaultThreads, 3)
			if err != nil {
				t.Fatal(err)
			}
			m, err := kernel.NewMachine(cfg, cfs.New(), w, kernel.Params{})
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, cfg.Name, err)
			}
			res, err := m.Run()
			if err != nil {
				t.Fatalf("%s on %s: %v", b.Name, cfg.Name, err)
			}
			if res.EndTime <= 0 || res.EndTime > 10*sim.Second {
				t.Fatalf("%s on %s: implausible runtime %v", b.Name, cfg.Name, res.EndTime)
			}
		}
	}
}
