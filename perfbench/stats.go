package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"colab/internal/cpu"
	"colab/internal/perfmodel"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfUsage returns this process's user+system CPU time and peak RSS in
// bytes.
func selfUsage() (time.Duration, float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpuTime := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpuTime, float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// resetPeakRSS restarts this process's peak-RSS counter (VmHWM) from the
// current resident set, so peakRSS reports the peak of what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS returns this process's VmHWM in bytes.
func peakRSS() (float64, error) {
	_, hwm, err := procUsage(os.Getpid())
	return hwm, err
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// procUsage reads a child's user+system CPU time and peak RSS (VmHWM, in
// bytes) from /proc.
func procUsage(pid int) (time.Duration, float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	rest := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(rest) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(rest[11], 10, 64)
	st, err2 := strconv.ParseInt(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	cpuTime := time.Duration(ut+st) * time.Second / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	var hwm float64
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, 0, fmt.Errorf("malformed VmHWM in /proc/%d/status", pid)
			}
			hwm = kb * 1024
		}
	}
	return cpuTime, hwm, nil
}

// setupReps is how many times a workload repeats its one-time set-up;
// setup_s is the median, so one disturbed repetition does not move it.
const setupReps = 7

// trainModels performs the model training every workload pays once before
// its first measured operation: the standard six-counter speedup model
// (perfmodel.Default) and the tri-gear tiered model
// (perfmodel.DefaultTriGear). The first call goes through the
// process-cached defaults, so later phases reuse them; repeated calls
// retrain from scratch through the same functions the defaults wrap.
func trainModels(first bool) error {
	if first {
		if _, err := perfmodel.Default(); err != nil {
			return err
		}
		_, err := perfmodel.DefaultTriGear()
		return err
	}
	if _, err := perfmodel.TrainDefault(); err != nil {
		return err
	}
	_, err := perfmodel.TrainTiered(cpu.TriGearTiers(), perfmodel.CollectOptions{})
	return err
}

// repeatSetup runs step setupReps times and returns the median steal-free
// duration in seconds and the median training time in milliseconds (train
// is the share of each repetition spent in trainModels).
func repeatSetup(e *env, step func(rep int) (train time.Duration, err error)) (setupS, trainMS float64, err error) {
	var spans [][2]time.Time
	var trains []float64
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		tr, err := step(rep)
		if err != nil {
			return 0, 0, fmt.Errorf("set-up repetition %d: %w", rep+1, err)
		}
		spans = append(spans, [2]time.Time{t0, time.Now()})
		trains = append(trains, ms(tr))
	}
	e.clock.sample()
	total := make([]float64, len(spans))
	for i, s := range spans {
		total[i] = e.took(s[0], s[1]).Seconds()
	}
	return median(total), median(trains), nil
}

// timedTrain runs trainModels and returns its duration.
func timedTrain(first bool) (time.Duration, error) {
	t0 := time.Now()
	err := trainModels(first)
	return time.Since(t0), err
}

// gcSnapshot captures the Go runtime counters the go.* metrics report.
type gcSnapshot struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readGC() gcSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcSnapshot{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

// setGoMetrics reports allocation and GC activity between two snapshots;
// allocation is per cell, or per 1k simulated events when perKEvents is
// set (the big-machine workload, whose cells are single large runs).
func setGoMetrics(r *report, a, b gcSnapshot, cells int, perKEvents float64) {
	div := float64(cells)
	if perKEvents > 0 {
		div = perKEvents
	}
	if div <= 0 {
		div = 1
	}
	r.set("go.alloc_kb_per_cell", float64(b.totalAlloc-a.totalAlloc)/1024/div, "KiB")
	r.set("go.gc_cycles", float64(b.numGC-a.numGC), "count")
	r.set("go.gc_pause_ms", float64(b.pauseNs-a.pauseNs)/1e6, "ms")
}

// endToEnd renders the seven end-to-end metrics every workload reports.
type endToEnd struct {
	setupS       float64
	cellsPerS    float64
	eventsPerS   float64
	reqMS        []float64
	cpuPerCell   time.Duration
	peakRSSBytes float64
}

func (m endToEnd) apply(r *report) {
	r.set("setup_s", m.setupS, "s")
	r.set("cells_per_s", m.cellsPerS, "1/s")
	r.set("sim_events_per_s", m.eventsPerS, "1/s")
	r.set("req_p50_ms", quantile(m.reqMS, 0.50), "ms")
	r.set("req_p90_ms", quantile(m.reqMS, 0.90), "ms")
	r.set("cpu_ms_per_cell", ms(m.cpuPerCell), "ms")
	r.set("peak_rss_mb", m.peakRSSBytes/(1<<20), "MiB")
	fmt.Fprintf(os.Stderr, "perfbench: %d timed requests\n", len(m.reqMS))
}
