package workload

import (
	"testing"

	"colab/internal/mathx"
)

// Every built-in generator sizes each thread's program exactly from its op
// count: a short guess would regrow the slice during the build and a long
// one would hold dead capacity for the whole run.
func TestProgramsPreSized(t *testing.T) {
	for _, b := range All() {
		for _, n := range []int{1, 2, 3, 4, 7, 9} {
			app, err := b.Instantiate(0, n, mathx.NewRNG(uint64(n)))
			if err != nil {
				t.Fatal(err)
			}
			for _, th := range app.Threads {
				if len(th.Program) != cap(th.Program) {
					t.Errorf("%s:%d thread %s: program len %d, cap %d", b.Name, n, th.Name, len(th.Program), cap(th.Program))
				}
			}
		}
	}
}

// Sizing must not turn a non-positive phase or item count, which builds
// empty programs, into a panic.
func TestNonPositiveCountsBuildEmptyPrograms(t *testing.T) {
	for _, n := range []int{1, 3} {
		b := NewAppBuilder(0, "neg", mathx.NewRNG(1))
		b.DataParallel(n, DataParallelOptions{Phases: -2, LocksPer: 2, Profile: ComputeProfile})
		b.Pipeline(n, []PipeStage{{Name: "a", WorkItem: ms, Profile: ComputeProfile}, {Name: "b", WorkItem: ms, Profile: MemoryProfile}}, -5, 2)
		for _, th := range b.app.Threads {
			if len(th.Program) != 0 {
				t.Errorf("n=%d thread %s: %d ops, want none", n, th.Name, len(th.Program))
			}
		}
	}
}

// BenchmarkBuildCompositions builds all 26 Table 4 compositions at seed 1,
// the workload-build share of every paper-matrix cell.
func BenchmarkBuildCompositions(b *testing.B) {
	comps := Compositions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, c := range comps {
			if _, err := c.Spec().Build(1); err != nil {
				b.Fatal(err)
			}
		}
	}
}
