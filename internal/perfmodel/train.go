package perfmodel

import (
	"fmt"
	"sync"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
	"colab/internal/workload"
)

// CollectOptions parameterise training-set collection.
type CollectOptions struct {
	// Cores is the core count of each symmetric training machine (§4.1
	// trains on big-only vs little-only runs). Default 4.
	Cores int
	// Threads is the per-benchmark thread count. 0 uses each benchmark's
	// default.
	Threads int
	// Seed drives workload generation; both symmetric runs of a benchmark
	// share it so their threads pair up one-to-one.
	Seed uint64
}

func (o CollectOptions) withDefaults() CollectOptions {
	if o.Cores == 0 {
		o.Cores = 4
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// minTrainExec filters threads too short-lived to carry signal.
const minTrainExec = sim.Millisecond

// CollectSamples builds the paper's offline training set (§4.1): the
// big-tier entry of CollectTieredSamples over the default big.LITTLE
// palette, that is every benchmark run alone on an all-big and an
// all-little machine under CFS, each thread's big-run counters labelled
// with its measured little-vs-big execution-time ratio.
func CollectSamples(opt CollectOptions) ([]Sample, error) {
	samples, err := CollectTieredSamples(cpu.DefaultTiers(), opt)
	if err != nil {
		return nil, err
	}
	return samples[cpu.Big], nil
}

// runSingleOn executes one benchmark alone on an arbitrary machine under CFS
// and returns the workload with populated accounting, counters included:
// training reads them, so it asks for their synthesis whatever the
// machine's default for the scheduler.
func runSingleOn(bench string, threads int, cfg cpu.Config, opt CollectOptions) (*task.Workload, error) {
	w, err := workload.SingleProgram(bench, threads, opt.Seed)
	if err != nil {
		return nil, err
	}
	m, err := kernel.NewMachine(cfg, cfs.New(), w, kernel.Params{})
	if err != nil {
		return nil, fmt.Errorf("perfmodel: training run %s on %s: %w", bench, cfg.Name, err)
	}
	m.SetCounters(true)
	if _, err := m.Run(); err != nil {
		return nil, fmt.Errorf("perfmodel: training run %s on %s: %w", bench, cfg.Name, err)
	}
	return w, nil
}

// TrainDefault collects the standard training set and fits the standard
// six-feature model.
func TrainDefault() (*Model, error) {
	samples, err := CollectSamples(CollectOptions{})
	if err != nil {
		return nil, err
	}
	return Train(samples, NumSelected)
}

var (
	defaultOnce  sync.Once
	defaultModel *Model
	defaultErr   error
)

// Default returns the lazily trained, process-cached standard model. All
// experiment-harness runs share it, mirroring the paper's single offline
// model used across every evaluation.
func Default() (*Model, error) {
	defaultOnce.Do(func() {
		defaultModel, defaultErr = TrainDefault()
	})
	return defaultModel, defaultErr
}
