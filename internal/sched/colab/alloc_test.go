package colab

import (
	"strings"
	"testing"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/perfmodel"
	"colab/internal/workload"
)

// TestCOLABSelectorDoesNotAllocate runs COLAB on oversubscribedMix over
// the 256-core NUMA palette: with more threads than cores, idle upper-tier
// cores pull and queues refill, so the selector's local scan, steal and
// pull all run. After a warm-up (queue slices and the event slab at
// capacity) the event loop, labeling passes included, must run
// allocation-free over the next 201k of the run's 353k events. The events
// are counted by Processed: one engine step may be a reschedule sweep
// that counts each core it visits, so each measured round steps until
// Processed has grown by 1000.
func TestCOLABSelectorDoesNotAllocate(t *testing.T) {
	const warmup = 100000
	cfg := cpu.Config2x32B32M64S
	spec, err := workload.ResolveSpec(oversubscribedMix)
	if err != nil {
		t.Fatal(err)
	}
	w, err := spec.BuildFor(1000, cfg.AggregateCapacity())
	if err != nil {
		t.Fatal(err)
	}
	s, err := kernel.NewPipeline("colab", NewLabeler(perfmodel.Oracle(), nil, nil), NewAllocator(false), NewSelector(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kernel.NewMachine(cfg, s, w, kernel.Params{MaxEvents: warmup})
	if err != nil {
		t.Fatal(err)
	}
	// The event budget ends Run after the warm-up and leaves the machine
	// mid-run, so the measured loop steps the same run on.
	if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "event budget") {
		t.Fatalf("run ended during the warm-up: %v", err)
	}
	eng := m.Engine()
	avg := testing.AllocsPerRun(200, func() {
		for target := eng.Processed + 1000; eng.Processed < target; {
			if !eng.Step() {
				t.Fatal("engine drained during measurement")
			}
		}
	})
	if avg != 0 {
		t.Fatalf("COLAB dispatch allocates: %.2f allocs per 1000 events, want 0", avg)
	}
}
