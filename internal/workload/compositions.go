package workload

// Class groups workload compositions the way the paper's evaluation does.
type Class string

// The five workload classes of Table 4.
const (
	ClassSync  Class = "Sync"  // synchronization-intensive
	ClassNSync Class = "NSync" // synchronization non-intensive
	ClassComm  Class = "Comm"  // communication-intensive
	ClassComp  Class = "Comp"  // computation-intensive
	ClassRand  Class = "Rand"  // random-mixed
)

// Part is one benchmark instance inside a composition.
type Part struct {
	Bench   string
	Threads int
}

// Composition is one multi-programmed workload of Table 4.
type Composition struct {
	Index string // e.g. "Sync-1"
	Class Class
	Parts []Part
}

// TotalThreads returns the composition's thread count (the Table 4 column).
func (c Composition) TotalThreads() int {
	n := 0
	for _, p := range c.Parts {
		n += p.Threads
	}
	return n
}

// NumPrograms returns the number of benchmark instances.
func (c Composition) NumPrograms() int { return len(c.Parts) }

// Compositions returns the 26 multi-programmed workloads of Table 4. The
// per-benchmark thread splits respect the 2-thread cap on water_nsquared,
// water_spatial and fmm and sum to the paper's per-workload thread totals.
func Compositions() []Composition {
	return []Composition{
		// Synchronization-intensive.
		{Index: "Sync-1", Class: ClassSync, Parts: []Part{{"water_nsquared", 2}, {"fmm", 2}}},
		{Index: "Sync-2", Class: ClassSync, Parts: []Part{{"dedup", 9}, {"fluidanimate", 9}}},
		{Index: "Sync-3", Class: ClassSync, Parts: []Part{{"water_nsquared", 2}, {"fmm", 2}, {"fluidanimate", 3}, {"bodytrack", 2}}},
		{Index: "Sync-4", Class: ClassSync, Parts: []Part{{"dedup", 8}, {"ferret", 8}, {"fmm", 2}, {"water_nsquared", 2}}},
		// Synchronization non-intensive.
		{Index: "NSync-1", Class: ClassNSync, Parts: []Part{{"water_spatial", 2}, {"lu_cb", 2}}},
		{Index: "NSync-2", Class: ClassNSync, Parts: []Part{{"blackscholes", 8}, {"swaptions", 8}}},
		{Index: "NSync-3", Class: ClassNSync, Parts: []Part{{"radix", 2}, {"fft", 2}, {"water_spatial", 2}, {"lu_cb", 2}}},
		{Index: "NSync-4", Class: ClassNSync, Parts: []Part{{"blackscholes", 6}, {"ocean_cp", 6}, {"lu_ncb", 4}, {"swaptions", 4}}},
		// Communication-intensive.
		{Index: "Comm-1", Class: ClassComm, Parts: []Part{{"water_nsquared", 2}, {"blackscholes", 2}}},
		{Index: "Comm-2", Class: ClassComm, Parts: []Part{{"ferret", 8}, {"dedup", 8}}},
		{Index: "Comm-3", Class: ClassComm, Parts: []Part{{"water_nsquared", 2}, {"fft", 2}, {"radix", 3}, {"bodytrack", 2}}},
		{Index: "Comm-4", Class: ClassComm, Parts: []Part{{"blackscholes", 4}, {"dedup", 6}, {"ferret", 8}, {"water_nsquared", 2}}},
		// Computation-intensive.
		{Index: "Comp-1", Class: ClassComp, Parts: []Part{{"water_spatial", 2}, {"fmm", 2}}},
		{Index: "Comp-2", Class: ClassComp, Parts: []Part{{"fluidanimate", 9}, {"swaptions", 8}}},
		{Index: "Comp-3", Class: ClassComp, Parts: []Part{{"lu_ncb", 2}, {"fmm", 2}, {"water_spatial", 2}, {"lu_cb", 2}}},
		{Index: "Comp-4", Class: ClassComp, Parts: []Part{{"fluidanimate", 8}, {"ocean_cp", 4}, {"lu_ncb", 4}, {"swaptions", 4}}},
		// Random-mixed.
		{Index: "Rand-1", Class: ClassRand, Parts: []Part{{"lu_cb", 6}, {"dedup", 13}}},
		{Index: "Rand-2", Class: ClassRand, Parts: []Part{{"lu_ncb", 4}, {"bodytrack", 6}}},
		{Index: "Rand-3", Class: ClassRand, Parts: []Part{{"ferret", 7}, {"water_spatial", 2}}},
		{Index: "Rand-4", Class: ClassRand, Parts: []Part{{"ocean_cp", 4}, {"fft", 4}}},
		{Index: "Rand-5", Class: ClassRand, Parts: []Part{{"freqmine", 4}, {"water_nsquared", 2}}},
		{Index: "Rand-6", Class: ClassRand, Parts: []Part{{"water_spatial", 2}, {"fmm", 2}, {"fft", 8}, {"fluidanimate", 9}}},
		{Index: "Rand-7", Class: ClassRand, Parts: []Part{{"fmm", 2}, {"water_spatial", 2}, {"ferret", 8}, {"swaptions", 8}}},
		{Index: "Rand-8", Class: ClassRand, Parts: []Part{{"water_spatial", 2}, {"water_nsquared", 2}, {"ferret", 7}, {"freqmine", 6}}},
		{Index: "Rand-9", Class: ClassRand, Parts: []Part{{"blackscholes", 16}, {"bodytrack", 12}, {"dedup", 14}, {"fluidanimate", 13}}},
		{Index: "Rand-10", Class: ClassRand, Parts: []Part{{"lu_cb", 12}, {"lu_ncb", 13}, {"bodytrack", 14}, {"dedup", 14}}},
	}
}

// CompositionsByClass filters Table 4 by class.
func CompositionsByClass(cl Class) []Composition {
	var out []Composition
	for _, c := range Compositions() {
		if c.Class == cl {
			out = append(out, c)
		}
	}
	return out
}

// CompositionByIndex looks a composition up by its Table 4 index.
func CompositionByIndex(idx string) (Composition, bool) {
	for _, c := range Compositions() {
		if c.Index == idx {
			return c, true
		}
	}
	return Composition{}, false
}
