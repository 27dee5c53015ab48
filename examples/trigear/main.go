// Tri-gear DVFS walkthrough: run one multi-programmed workload on the
// 2B2M2S big.MEDIUM.LITTLE machine three ways — fixed-frequency COLAB with
// interpolated middle-tier predictions (the PR-1 state), COLAB with
// per-tier trained speedup models, and COLAB with both the tiered model and
// its native label-driven DVFS governor — and compare turnaround, energy,
// energy-delay product and frequency residency.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"colab"
)

func main() {
	// The big-anchor model (Table 2) and the per-tier tri-gear models.
	// Both train from symmetric counter runs and are cached process-wide.
	model, err := colab.TrainSpeedupModel()
	if err != nil {
		log.Fatal(err)
	}
	tiered, err := colab.TrainTriGearSpeedupModel()
	if err != nil {
		log.Fatal(err)
	}
	for k := 1; k < tiered.NumTiers(); k++ {
		m := tiered.Models[k]
		fmt.Printf("tier %-6s model: R2=%.3f over %d samples\n", tiered.Tiers[k].Name, m.R2, m.Samples)
	}

	variants := []struct {
		name string
		mk   func() colab.Scheduler
	}{
		// Fixed frequency, middle tiers interpolated from the big anchor.
		{"colab (interp, fixed-freq)", func() colab.Scheduler { return colab.NewCOLAB(model) }},
		// Per-tier trained predictions, still fixed frequency: the
		// colab-dvfs labeler without the governor stage.
		{"colab (tiered, fixed-freq)", func() colab.Scheduler {
			ctx := colab.PolicyContext{Speedup: model.ThreadPredictor(), TierSpeedup: tiered.TierPredictor()}
			s, err := colab.NewPolicy("colab-dvfs.labeler+colab.allocator+colab.selector", ctx)
			if err != nil {
				log.Fatal(err)
			}
			return s
		}},
		// Per-tier predictions + the native label-driven governor.
		{"colab-dvfs (tiered+governor)", func() colab.Scheduler { return colab.NewCOLABDVFS(model, tiered) }},
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\nvariant\tmakespan\tenergy\tEDP\tf@nom")
	for _, v := range variants {
		// Workloads are single-use: rebuild per run with the same seed so
		// every variant sees identical threads.
		w, err := colab.BuildWorkload("Rand-7", 1)
		if err != nil {
			log.Fatal(err)
		}
		res, err := colab.Run(colab.Config2B2M2S, v.mk(), w)
		if err != nil {
			log.Fatal(err)
		}
		// Frequency residency: share of busy time at each core's nominal
		// (top) operating point. 1.00 means the ladders went unused.
		var busy, nom colab.Time
		for _, c := range res.Cores {
			for i, b := range c.BusyByOPP {
				busy += b
				if i == len(c.BusyByOPP)-1 {
					nom += b
				}
			}
		}
		fmt.Fprintf(tw, "%s\t%v\t%.3f J\t%.4f Js\t%.2f\n",
			v.name, res.Makespan(), res.TotalEnergyJ(), res.EnergyDelayProduct(), float64(nom)/float64(busy))
	}
	tw.Flush()
	fmt.Println("\nThe governor trades a little turnaround for a larger energy cut:")
	fmt.Println("its energy-delay product lands below the fixed-frequency runs while")
	fmt.Println("f@nom < 1 shows the label-driven operating-point decisions at work.")
}
