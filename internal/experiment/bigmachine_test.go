package experiment

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"colab/internal/cpu"
	"colab/internal/workload"
)

// TestBigMachineDeterministicAcrossWorkers is the 128-core acceptance run:
// the open-system mix on Config32B32M64S must render byte-identical scored
// cells for worker counts 1, 4 and 8 under all five policies. Mask words
// past core 63, parallel cell execution and the event freelist
// must leave no trace in the results.
func TestBigMachineDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five policies on a 128-core open mix; not -short")
	}
	policies := []string{SchedLinux, SchedWASH, SchedCOLAB, SchedGTS, SchedEAS}
	render := func(workers int) string {
		b := &Batch{
			Scenarios: []workload.Spec{openSpec(t)},
			Configs:   []cpu.Config{cpu.Config32B32M64S},
			Policies:  policies,
			Seeds:     []uint64{1},
			Workers:   workers,
		}
		cells, err := b.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := ""
		for _, c := range cells {
			if c.Score.HANTT <= 0 || c.Score.HSTP <= 0 {
				t.Fatalf("degenerate score for %+v: %+v", c.Key, c.Score)
			}
			out += fmt.Sprintf("%s|%s|%s|%d HANTT=%s HSTP=%s\n",
				c.Key.Workload, c.Key.Config, c.Key.Policy, c.Key.Seed,
				strconv.FormatFloat(c.Score.HANTT, 'g', -1, 64),
				strconv.FormatFloat(c.Score.HSTP, 'g', -1, 64))
		}
		return out
	}
	ref := render(1)
	for _, workers := range []int{4, 8} {
		if got := render(workers); got != ref {
			t.Errorf("workers=%d differs from workers=1:\n%s\nvs\n%s", workers, got, ref)
		}
	}
}
