package kernel

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"colab/internal/cpu"
	"colab/internal/sim"
)

// AppResult records one application's outcome.
type AppResult struct {
	Name       string
	AppID      int
	NumThreads int
	// Arrival is when the app was admitted (zero for closed-system apps).
	Arrival sim.Time
	// Turnaround is completion time minus Arrival.
	Turnaround sim.Time
}

// ThreadResult records one thread's accounting at the end of a run.
type ThreadResult struct {
	Name        string
	ID          int
	App         string
	TrueSpeedup float64
	SumExec     sim.Time
	SumExecBig  sim.Time
	BlockedTime sim.Time
	ReadyTime   sim.Time
	BlockBlame  sim.Time
	WorkDone    float64
	Migrations  int
	// CrossDomainHops sums LLC-domain hop distance over the thread's
	// migrations (always 0 on flat machines).
	CrossDomainHops int
	Preemptions     int
	Switches        int
}

// CoreResult records one core's utilisation.
type CoreResult struct {
	ID         int
	Kind       cpu.Kind // tier index
	TierName   string
	BusyTime   sim.Time
	IdleTime   sim.Time
	Dispatches int
	EnergyJ    float64 // per the machine's power model
	// BusyByOPP is the core's busy-time residency per DVFS operating
	// point (ladder order, ascending frequency; length 1 on
	// fixed-frequency tiers).
	BusyByOPP []sim.Time
	OPPsMHz   []int
}

// Result is the outcome of one simulation.
type Result struct {
	Workload string
	Sched    string
	Config   string
	EndTime  sim.Time
	Events   uint64
	Apps     []AppResult
	Threads  []ThreadResult
	Cores    []CoreResult

	TotalMigrations  int
	TotalPreemptions int
	TotalSwitches    int
}

func (m *Machine) buildResult() *Result {
	r := &Result{
		Workload: m.workload.Name,
		Sched:    m.sched.Name(),
		Config:   m.config.Name,
		EndTime:  m.eng.Now(),
		Events:   m.eng.Processed,
		Apps:     make([]AppResult, 0, len(m.workload.Apps)),
		Threads:  make([]ThreadResult, 0, len(m.threads)),
		Cores:    make([]CoreResult, 0, len(m.cores)),
	}
	for _, a := range m.workload.Apps {
		r.Apps = append(r.Apps, AppResult{
			Name:       a.Name,
			AppID:      a.ID,
			NumThreads: a.NumThreads(),
			Arrival:    a.StartTime,
			Turnaround: a.TurnaroundTime(),
		})
	}
	for _, t := range m.threads {
		r.Threads = append(r.Threads, ThreadResult{
			Name:            t.Name,
			ID:              t.ID,
			App:             t.App.Name,
			TrueSpeedup:     t.Profile.TrueSpeedup(),
			SumExec:         t.SumExec,
			SumExecBig:      t.SumExecBig,
			BlockedTime:     t.BlockedTime,
			ReadyTime:       t.ReadyTime,
			BlockBlame:      t.BlockBlame,
			WorkDone:        t.WorkDone,
			Migrations:      t.Migrations,
			CrossDomainHops: t.CrossDomainHops,
			Preemptions:     t.Preemptions,
			Switches:        t.Switches,
		})
		r.TotalMigrations += t.Migrations
		r.TotalPreemptions += t.Preemptions
		r.TotalSwitches += t.Switches
	}
	for _, c := range m.cores {
		r.Cores = append(r.Cores, CoreResult{
			ID:         c.ID,
			Kind:       c.Kind,
			TierName:   c.Tier.Name,
			BusyTime:   c.BusyTime,
			IdleTime:   c.IdleTime,
			Dispatches: c.Dispatches,
			EnergyJ:    m.params.Power.TierEnergyJ(c.Tier, c.busyByOPP, c.IdleTime),
			BusyByOPP:  append([]sim.Time(nil), c.busyByOPP...),
			OPPsMHz:    append([]int(nil), c.ladder...),
		})
	}
	return r
}

// TotalEnergyJ sums per-core energy over the run (extension metric).
func (r *Result) TotalEnergyJ() float64 {
	var e float64
	for _, c := range r.Cores {
		e += c.EnergyJ
	}
	return e
}

// EnergyDelayProduct returns energy (J) times makespan (s), the standard
// combined efficiency figure of merit.
func (r *Result) EnergyDelayProduct() float64 {
	return r.TotalEnergyJ() * r.Makespan().Seconds()
}

// AppTurnaround returns the turnaround time of the named app (first match),
// or false when absent.
func (r *Result) AppTurnaround(name string) (sim.Time, bool) {
	for _, a := range r.Apps {
		if a.Name == name {
			return a.Turnaround, true
		}
	}
	return 0, false
}

// Makespan returns the completion time of the last app.
func (r *Result) Makespan() sim.Time {
	var mx sim.Time
	for _, a := range r.Apps {
		if a.Turnaround > mx {
			mx = a.Turnaround
		}
	}
	return mx
}

// WriteSummary prints a human-readable run summary.
func (r *Result) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "workload %s | scheduler %s | config %s | simulated %v | %d events\n",
		r.Workload, r.Sched, r.Config, r.EndTime, r.Events)
	open := false
	for _, a := range r.Apps {
		if a.Arrival > 0 {
			open = true
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if open {
		fmt.Fprintln(tw, "app\tthreads\tarrival\tturnaround")
	} else {
		fmt.Fprintln(tw, "app\tthreads\tturnaround")
	}
	apps := append([]AppResult(nil), r.Apps...)
	sort.Slice(apps, func(i, j int) bool { return apps[i].AppID < apps[j].AppID })
	for _, a := range apps {
		if open {
			fmt.Fprintf(tw, "%s\t%d\t%v\t%v\n", a.Name, a.NumThreads, a.Arrival, a.Turnaround)
		} else {
			fmt.Fprintf(tw, "%s\t%d\t%v\n", a.Name, a.NumThreads, a.Turnaround)
		}
	}
	tw.Flush()
	fmt.Fprintf(w, "switches %d, migrations %d, preemptions %d\n",
		r.TotalSwitches, r.TotalMigrations, r.TotalPreemptions)
	for _, c := range r.Cores {
		total := c.BusyTime + c.IdleTime
		util := 0.0
		if total > 0 {
			util = float64(c.BusyTime) / float64(total) * 100
		}
		fmt.Fprintf(w, "cpu%d(%s): busy %v (%.1f%%), %.3f J\n", c.ID, c.TierName, c.BusyTime, util, c.EnergyJ)
	}
	fmt.Fprintf(w, "energy %.3f J, energy-delay product %.4f Js\n", r.TotalEnergyJ(), r.EnergyDelayProduct())
}
