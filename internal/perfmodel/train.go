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

// CollectSamples runs every benchmark in single-program mode on a big-only
// and a little-only machine under CFS, records the big-run performance
// counters of each thread and labels them with the measured little-vs-big
// execution-time ratio — the paper's offline training-set construction
// (§4.1).
func CollectSamples(opt CollectOptions) ([]Sample, error) {
	opt = opt.withDefaults()
	var samples []Sample
	for _, b := range workload.All() {
		threads := opt.Threads
		if threads == 0 {
			threads = b.DefaultThreads
		}
		if b.MaxThreads > 0 && threads > b.MaxThreads {
			threads = b.MaxThreads
		}
		bigRun, err := runSymmetric(b.Name, threads, cpu.Big, opt)
		if err != nil {
			return nil, err
		}
		littleRun, err := runSymmetric(b.Name, threads, cpu.Little, opt)
		if err != nil {
			return nil, err
		}
		bigThreads := bigRun.Threads()
		littleThreads := littleRun.Threads()
		if len(bigThreads) != len(littleThreads) {
			return nil, fmt.Errorf("perfmodel: %s symmetric runs disagree on thread count", b.Name)
		}
		for i, bt := range bigThreads {
			lt := littleThreads[i]
			if bt.SumExec < minTrainExec || lt.SumExec < minTrainExec {
				continue
			}
			samples = append(samples, Sample{
				Bench:    b.Name,
				Counters: bt.TotalCounters,
				Speedup:  float64(lt.SumExec) / float64(bt.SumExec),
			})
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("perfmodel: no usable training samples collected")
	}
	return samples, nil
}

// runSymmetric executes one benchmark alone on an all-big or all-little
// machine under CFS and returns the workload with populated accounting.
func runSymmetric(bench string, threads int, kind cpu.Kind, opt CollectOptions) (*task.Workload, error) {
	return runSingleOn(bench, threads, cpu.NewSymmetric(kind, opt.Cores), opt)
}

// runSingleOn executes one benchmark alone on an arbitrary machine under CFS
// and returns the workload with populated accounting.
func runSingleOn(bench string, threads int, cfg cpu.Config, opt CollectOptions) (*task.Workload, error) {
	w, err := workload.SingleProgram(bench, threads, opt.Seed)
	if err != nil {
		return nil, err
	}
	m, err := kernel.NewMachine(cfg, cfs.New(), w, kernel.Params{})
	if err != nil {
		return nil, fmt.Errorf("perfmodel: training run %s on %s: %w", bench, cfg.Name, err)
	}
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
