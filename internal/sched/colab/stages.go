package colab

import (
	"fmt"
	"math/bits"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/sched/cfs"
	"colab/internal/sim"
	"colab/internal/task"
)

// The COLAB stage decomposition. The three collaborating heuristics (plus
// the governor) communicate exclusively through the pipeline hint board:
// the labeler publishes Label / TargetTier / Pred / TierPred / Crit /
// LastBlame, the allocator reads TargetTier, the selector reads Crit and
// the predictions, the governor reads Label and LastBlame. Swapping any
// stage for another policy's (or dropping the labeler, leaving neutral
// hints) yields a well-defined hybrid — the ablation axis the paper argues
// along, now first-class.

// ---------------------------------------------------------------------------
// Multi-factor labeler (§3.2): periodically refresh the runtime models and
// re-tag every live thread with a target tier.

// LabelerStage is the COLAB multi-factor labeler as a pipeline stage.
type LabelerStage struct {
	speedup     func(*task.Thread) float64
	tierSpeedup func(*task.Thread, int) float64
	tierTiers   []cpu.Tier
	pc          *kernel.PipelineContext
	// useTierPred reports whether tierSpeedup applies to this machine
	// (set in Start after the palette check).
	useTierPred bool
	// preds and blames are reused by every labeling pass so a pass does
	// not allocate.
	preds  []float64
	blames []float64
}

// NewLabeler returns the COLAB labeler stage. speedup predicts the
// big-vs-little speedup (nil: the neutral kernel.NeutralPred); tierSpeedup,
// when set, predicts per tier index instead of interpolating speedup
// through Tier.RelSpeedup, on machines whose palette is tierTiers (nil:
// every machine) — elsewhere its tier indices would mean other tiers.
func NewLabeler(speedup func(*task.Thread) float64, tierSpeedup func(*task.Thread, int) float64, tierTiers []cpu.Tier) *LabelerStage {
	if speedup == nil {
		speedup = func(*task.Thread) float64 { return kernel.NeutralPred }
	}
	return &LabelerStage{speedup: speedup, tierSpeedup: tierSpeedup, tierTiers: tierTiers}
}

// Name implements kernel.Stage.
func (l *LabelerStage) Name() string { return "colab.labeler" }

// Start implements kernel.Stage.
func (l *LabelerStage) Start(pc *kernel.PipelineContext) {
	l.pc = pc
	l.useTierPred = l.tierSpeedup != nil &&
		(l.tierTiers == nil || paletteMatches(l.tierTiers, pc.Machine().Tiers()))
}

// Label implements kernel.Labeler.
func (l *LabelerStage) Label(threads []*task.Thread) {
	m := l.pc.Machine()
	preds, blames := l.preds[:0], l.blames[:0]
	nt := m.NumTiers()
	board := l.pc.Hints()
	for _, t := range threads {
		h := board.Get(t)
		h.Pred = l.speedup(t)
		if l.useTierPred {
			if h.TierPred == nil {
				h.TierPred = make([]float64, nt)
			}
			h.TierPred[0] = 1
			for tier := 1; tier < nt; tier++ {
				h.TierPred[tier] = l.tierSpeedup(t, tier)
			}
		}
		intervalBlame := float64(t.BlockBlame - h.LastBlame)
		h.LastBlame = t.BlockBlame
		h.Crit = blameDecay*h.Crit + (1-blameDecay)*intervalBlame
		t.IntervalCounters = cpu.Vec{}
		preds = append(preds, h.Pred)
		blames = append(blames, h.Crit)
	}
	l.preds, l.blames = preds, blames
	pMean, pStd := mathx.Mean(preds), mathx.Std(preds)
	bMean := mathx.Mean(blames)
	// Degenerate distributions (all threads alike) must not label everyone
	// big: require a real margin above the mean.
	highThresh := pMean + mathx.Clamp(highSpeedupZ*pStd, 0.02*pMean, 1)
	lowThresh := pMean
	top := m.TopTier()
	for _, t := range threads {
		h := board.Get(t)
		switch {
		case h.Pred >= highThresh:
			h.Label, h.TargetTier = int(LabelBig), top
		case h.Pred < lowThresh && h.Crit <= 0.5*bMean:
			h.Label, h.TargetTier = int(LabelLittle), 0
		case nt > 2 && h.Crit <= 0.5*bMean:
			// Tier-ranked middle band: non-critical threads between the
			// thresholds are spread over the middle tiers by predicted
			// speedup. Critical ones keep full freedom (stay free).
			h.Label = int(LabelMid)
			h.TargetTier = middleTier(nt, h.Pred, lowThresh, highThresh)
		default:
			h.Label, h.TargetTier = int(LabelFree), -1
		}
	}
}

// ---------------------------------------------------------------------------
// Hierarchical round-robin core allocator (Alg. 1: _core_alloctor_).

// AllocatorStage places waking threads by the labeler's target tier:
// round-robin within the labelled tier's cluster, or across all cores for
// free (untagged) threads.
type AllocatorStage struct {
	// flat ignores labels: plain round-robin over all cores (the
	// colab-flat ablation).
	flat bool
	pc   *kernel.PipelineContext

	// tierIDs[k] holds the fallback targets for tier k when the home
	// domain has none of its cores: the tier's own cores when the cluster
	// is populated, all cores otherwise.
	tierIDs [][]int
	allIDs  []int

	// Round-robin counters: per tier (the fallback), per domain×tier
	// (dom*NumTiers()+tier), per domain and over all cores. A labelled
	// thread rotates over its home domain's slice of the tier band
	// (Machine.DomainTierCoreIDs), a free thread over its home domain
	// (Machine.DomainCoreIDs); an inactive topology is one domain holding
	// every core, in core order.
	rrTier    []int
	rrDomTier []int
	rrDom     []int
	rrAll     int
}

// NewAllocator returns the COLAB allocator stage; flat switches off the
// hierarchy (labels ignored, round-robin over all cores).
func NewAllocator(flat bool) *AllocatorStage {
	return &AllocatorStage{flat: flat}
}

// Name implements kernel.Stage.
func (a *AllocatorStage) Name() string { return "colab.allocator" }

// Start implements kernel.Stage.
func (a *AllocatorStage) Start(pc *kernel.PipelineContext) {
	a.pc = pc
	m := pc.Machine()
	a.allIDs = a.allIDs[:0]
	for i := range m.Cores() {
		a.allIDs = append(a.allIDs, i)
	}
	a.rrAll = 0
	if a.flat {
		return
	}
	nt, nd := m.NumTiers(), m.NumDomains()
	a.tierIDs = make([][]int, nt)
	for tier := range a.tierIDs {
		a.tierIDs[tier] = m.TierCoreIDs(tier)
		if len(a.tierIDs[tier]) == 0 {
			a.tierIDs[tier] = a.allIDs // unpopulated cluster: fall back to everything
		}
	}
	rr := make([]int, nt+nd*nt+nd)
	a.rrTier, a.rrDomTier, a.rrDom = rr[:nt], rr[nt:nt+nd*nt], rr[nt+nd*nt:]
}

// Enqueue implements kernel.Allocator. The hierarchical round-robin
// narrows each step to the thread's home LLC domain: labelled threads
// rotate over the home domain's slice of the target tier (tier-wide when
// the domain has no such cores), free threads rotate over the home domain,
// which on an inactive topology is the whole machine.
func (a *AllocatorStage) Enqueue(t *task.Thread, wakeup bool) int {
	var core int
	if a.flat {
		core = a.rr(a.allIDs, &a.rrAll)
	} else {
		m, d := a.pc.Machine(), t.HomeDomain
		if tier := a.pc.Hints().Get(t).TargetTier; tier >= 0 && tier < len(a.tierIDs) {
			if ids := m.DomainTierCoreIDs(d, tier); len(ids) > 0 {
				core = a.rr(ids, &a.rrDomTier[d*len(a.tierIDs)+tier])
			} else {
				core = a.rr(a.tierIDs[tier], &a.rrTier[tier])
			}
		} else {
			core = a.rr(m.DomainCoreIDs(d), &a.rrDom[d])
		}
	}
	a.pc.Queues().Push(core, t)
	return core
}

func (a *AllocatorStage) rr(ids []int, ctr *int) int {
	core := ids[*ctr%len(ids)]
	*ctr++
	return core
}

// ---------------------------------------------------------------------------
// Tier-ranked global thread selector (Alg. 1: _thread_selector_).

// SelectorStage always runs the most blocking (most critical) thread: the
// local queue first, then the same-tier cluster, then the remaining tiers
// from the top of the machine down; an empty core may pull a thread running
// on a lower-tier core. It also owns COLAB's scale-slice fairness hooks.
type SelectorStage struct {
	// off is the set of mechanisms switched off (DESIGN.md §4 ablations).
	off Features
	// fairnessWindow is the blame-priority bound (the fairnessWindow
	// constant; behaviour tests vary it).
	fairnessWindow sim.Time
	pc             *kernel.PipelineContext

	// stealOrder[k] lists, for a core of tier k, the other tiers to scan
	// in selection order: the core's own tier first, then the remaining
	// tiers from the top of the machine down.
	stealOrder [][]int
	// tierBest is stealMaxBlame's reused per-tier running best.
	tierBest []critBest
}

// Features is a set of the selector mechanisms an ablation can switch off.
type Features uint8

const (
	ScaleSlice Features = 1 << iota // speedup-scaled slices and vruntime (colab-noscale)
	Steal                           // take queued threads from other cores
	Pull                            // empty upper-tier cores pull lower-tier running threads (colab-nopull)
)

// NewSelector returns the COLAB selector stage with the mechanisms in off
// switched off (0 for the paper's selector).
func NewSelector(off Features) *SelectorStage {
	return &SelectorStage{off: off, fairnessWindow: fairnessWindow}
}

// Name implements kernel.Stage.
func (s *SelectorStage) Name() string { return "colab.selector" }

// Start implements kernel.Stage.
func (s *SelectorStage) Start(pc *kernel.PipelineContext) {
	s.pc = pc
	nt := pc.Machine().NumTiers()
	s.stealOrder = make([][]int, nt)
	for tier := 0; tier < nt; tier++ {
		order := []int{tier}
		for other := nt - 1; other >= 0; other-- {
			if other != tier {
				order = append(order, other)
			}
		}
		s.stealOrder[tier] = order
	}
	s.tierBest = make([]critBest, nt)
}

// PickNext implements kernel.Selector.
func (s *SelectorStage) PickNext(c *kernel.Core) *task.Thread {
	if t := s.takeMaxBlame(c.ID, c.ID); t != nil {
		return t
	}
	if s.off&Steal == 0 {
		if best := s.stealMaxBlame(c); best != nil {
			if !s.pc.Queues().Remove(best) {
				panic(fmt.Sprintf("colab: scanned thread %v vanished from the queues", best))
			}
			return best
		}
	}
	if int(c.Kind) > 0 && s.off&Pull == 0 {
		if t := s.pullFromLower(c); t != nil {
			return t // still Running on the lower core; the kernel migrates it
		}
	}
	return nil
}

// takeMaxBlame pops the most blocking thread allowed on core from queue q.
// The scan is an index loop over the insertion-ordered queue (not an Each
// closure) so the per-dispatch criticality sweep does not allocate.
func (s *SelectorStage) takeMaxBlame(q, core int) *task.Thread {
	qs := s.pc.Queues()
	var best critBest
	for i, n := 0, qs.Len(q); i < n; i++ {
		if t := qs.Thread(q, i); t.AllowedOn(core) {
			s.fold(&best, t)
		}
	}
	if best.t == nil {
		return nil
	}
	if !qs.Remove(best.t) {
		panic(fmt.Sprintf("colab: thread %v not found in cpu%d queue", best.t, q))
	}
	return best.t
}

// stealMaxBlame finds (without removing) the most blocking thread allowed
// on c queued on another core, searching tiers in c's steal order. One pass
// over the non-empty queues in ascending core order keeps each tier's best
// candidate; the first tier in steal order that has one wins.
func (s *SelectorStage) stealMaxBlame(c *kernel.Core) *task.Thread {
	qs := s.pc.Queues()
	if qs.Total() == 0 {
		return nil
	}
	cores := s.pc.Machine().Cores()
	best := s.tierBest
	clear(best)
	for id := qs.NextNonEmpty(0); id >= 0; id = qs.NextNonEmpty(id + 1) {
		if id == c.ID {
			continue
		}
		b := &best[cores[id].Kind]
		for i, n := 0, qs.Len(id); i < n; i++ {
			if t := qs.Thread(id, i); t.AllowedOn(c.ID) {
				s.fold(b, t)
			}
		}
	}
	for _, tier := range s.stealOrder[int(c.Kind)] {
		if best[tier].t != nil {
			return best[tier].t
		}
	}
	return nil
}

// pullFromLower selects the most critical thread currently running on a
// strictly lower tier for migration onto the idle core c. Lower tiers
// never pull from higher ones. It walks each lower tier's occupied cores
// one occupancy word at a time, from the base tier up. Every Current is
// Running (kernel invariant 1), so only the affinity is tested.
func (s *SelectorStage) pullFromLower(c *kernel.Core) *task.Thread {
	var best critBest
	m := s.pc.Machine()
	cores := m.Cores()
	words := (len(cores) + 63) / 64
	for tier := 0; tier < int(c.Kind); tier++ {
		for w := 0; w < words; w++ {
			for word := m.BusyWord(tier, w); word != 0; word &= word - 1 {
				if t := cores[w*64+bits.TrailingZeros64(word)].Current; t.AllowedOn(c.ID) {
					s.fold(&best, t)
				}
			}
		}
	}
	return best.t
}

// The selector's criticality order: higher blocking blame first
// (bottleneck acceleration), then higher predicted speedup (only
// meaningful when an upper-tier core selects — the §3.1 "empty big core"
// exception), then lower vruntime.
//
// Blame priority only applies within a vruntime fairness window: a thread
// that is more than fairnessWindow of (scaled) runtime ahead of a candidate
// loses to it regardless of blame. This is the selector's side of "keeping
// the whole workload in equal progress without penalizing any individual
// application" (§3.1): in overloaded systems unbounded blame priority would
// starve low-blame applications.
//
// The window makes the order non-transitive, so no heap or index can stand
// in for a scan: each scan folds its candidates in a fixed visiting order
// (tier-major, then ascending core, then queue order), and that order
// decides the winner. The fold reads a candidate's key once and keeps the
// running best's key beside it.

// critKey is the part of a thread the criticality order reads.
type critKey struct {
	vr         sim.Time
	crit, pred float64
}

// critBest is a fold's running best candidate and its key (t nil: none
// yet).
type critBest struct {
	t *task.Thread
	k critKey
}

// fold offers t to the running best b: t replaces it when b is empty or t
// beats it.
func (s *SelectorStage) fold(b *critBest, t *task.Thread) {
	h := s.pc.Hints().Get(t)
	k := critKey{vr: t.VRuntime, crit: h.Crit, pred: h.Pred}
	if b.t == nil || s.beats(k, b.k) {
		b.t, b.k = t, k
	}
}

// beats reports whether key a is strictly more critical than key b.
func (s *SelectorStage) beats(a, b critKey) bool {
	dv := a.vr - b.vr
	if dv > s.fairnessWindow || dv < -s.fairnessWindow {
		return dv < 0
	}
	if a.crit != b.crit {
		return a.crit > b.crit
	}
	if a.pred != b.pred {
		return a.pred > b.pred
	}
	return a.vr < b.vr
}

// ---------------------------------------------------------------------------
// Scale-slice fairness (§3.2 / §4.1).

// tierScale is the tier-relative predicted speedup of t on c: 1 on the base
// tier and, in two-anchor mode, the big prediction interpolated through
// Tier.RelSpeedup in between. With a per-tier trained model (the labeler's
// tierSpeedup) the labeler's published per-tier prediction is used
// directly instead.
func (s *SelectorStage) tierScale(c *kernel.Core, t *task.Thread) float64 {
	if c.Kind == 0 {
		return 1
	}
	h := s.pc.Hints().Get(t)
	if h.TierPred != nil {
		if sc := h.TierPred[c.Kind]; sc > 1 {
			return sc
		}
		return 1
	}
	return c.Tier.RelSpeedup(h.Pred)
}

// TimeSlice implements kernel.Selector. On upper-tier cores the slice
// shrinks by the tier-relative predicted speedup so selection triggers
// proportionally more often.
func (s *SelectorStage) TimeSlice(c *kernel.Core, t *task.Thread) sim.Time {
	nr := s.pc.Queues().Len(c.ID) + 1
	slice := cfs.TargetLatency / sim.Time(nr)
	if slice < cfs.MinGranularity {
		slice = cfs.MinGranularity
	}
	if c.Kind > 0 && s.off&ScaleSlice == 0 {
		if sc := s.tierScale(c, t); sc > 1 {
			slice = sim.Time(float64(slice) / sc)
		}
		if min := cfs.MinGranularity / 2; slice < min {
			slice = min
		}
	}
	return slice
}

// VRuntimeScale implements kernel.Selector: upper-tier cores charge
// vruntime at the tier-relative predicted speedup so equal vruntime means
// equal progress.
func (s *SelectorStage) VRuntimeScale(c *kernel.Core, t *task.Thread) float64 {
	if c.Kind > 0 && s.off&ScaleSlice == 0 {
		if sc := s.tierScale(c, t); sc > 1 {
			return sc
		}
	}
	return 1
}

// WakeupPreempt implements kernel.Selector: the CFS granularity check,
// relaxed for woken threads that are more critical than the running one.
func (s *SelectorStage) WakeupPreempt(c *kernel.Core, t *task.Thread) bool {
	cur := c.Current
	if cur == nil {
		return false
	}
	vdiff := cur.VRuntime - t.VRuntime
	if vdiff > cfs.WakeupGranularity {
		return true
	}
	return s.pc.Hints().Get(t).Crit > s.pc.Hints().Get(cur).Crit && vdiff > cfs.WakeupGranularity/4
}

var (
	_ kernel.Labeler   = (*LabelerStage)(nil)
	_ kernel.Allocator = (*AllocatorStage)(nil)
	_ kernel.Selector  = (*SelectorStage)(nil)
)
