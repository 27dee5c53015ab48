package main

import (
	"container/heap"
	"sync"
	"time"
)

type probeItem struct {
	key  uint64
	seq  int
	data [4]uint64
}

type probeHeap []probeItem

func (h probeHeap) Len() int { return len(h) }
func (h probeHeap) Less(i, j int) bool {
	return h[i].key < h[j].key || (h[i].key == h[j].key && h[i].seq < h[j].seq)
}
func (h probeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)   { *h = append(*h, x.(probeItem)) }
func (h *probeHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

var probeSink uint64

// probeWork is a fixed, program-independent CPU workload shaped like a
// discrete-event simulator: a priority queue of small records, map
// lookups and slice appends.
func probeWork(seed uint64) uint64 {
	x := seed | 1
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	h := make(probeHeap, 0, 4096)
	m := make(map[uint64]int, 4096)
	var acc uint64
	for i := 0; i < 4096; i++ {
		heap.Push(&h, probeItem{key: next() % 1e6, seq: i})
	}
	for i := 0; i < 150000; i++ {
		it := heap.Pop(&h).(probeItem)
		acc += it.key
		m[it.key&8191] += i
		it.key += next() % 1000
		it.seq = i
		heap.Push(&h, it)
	}
	return acc + uint64(len(m))
}

// probeNominal is the probe time of the reference host state that the
// end-to-end metrics are scaled to.
const probeNominal = 50 * time.Millisecond

// probeReps is how many probes one pause between segments takes.
const probeReps = 3

// probe runs probeWork on two goroutines and returns its steal-free time.
func (e *env) probe() time.Duration {
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(s uint64) {
			defer wg.Done()
			v := probeWork(s)
			mu.Lock()
			probeSink += v
			mu.Unlock()
		}(uint64(g + 1))
	}
	wg.Wait()
	t1 := time.Now()
	e.clock.sample()
	return e.took(t0, t1)
}

// probeMedian returns the median of n probes in milliseconds.
func (e *env) probeMedian(n int) float64 {
	var xs []float64
	for i := 0; i < n; i++ {
		xs = append(xs, ms(e.probe()))
	}
	return median(xs)
}

// segmentLen is how long the load runs between two host probes.
const segmentLen = 2 * time.Second

// speed tracks the host's speed through a measured window that is cut
// into segments: the load pauses before the first segment and after every
// segment while the probe runs.
type speed struct {
	e      *env
	probes []float64 // ms, one median per pause
}

// mark probes the host at a pause between segments.
func (s *speed) mark() { s.probes = append(s.probes, s.e.probeMedian(probeReps)) }

// slow returns how much slower than the reference host segment i ran:
// the faster of the probes around it over probeNominal. Disturbances
// only ever slow the probe down, so the faster one is the better
// estimate.
func (s *speed) slow(i int) float64 {
	return min(s.probes[i], s.probes[i+1]) / ms(probeNominal)
}

// ref converts a steal-free duration measured in segment i to the time
// the reference host would have taken.
func (s *speed) ref(i int, d time.Duration) time.Duration {
	return time.Duration(float64(d) / s.slow(i))
}
