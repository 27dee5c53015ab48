// Package wash re-implements the WASH scheduler (Jibaja et al., CGO 2016)
// the way the paper does for its state-of-the-art comparison (§5.1): the
// same multi-factor heuristic — predicted speedup, lock-blocking
// criticality and big-core-share fairness — folded into one mixed score
// that only steers thread *affinity*. Allocation and selection below the
// affinity masks remain plain CFS, which is exactly the limitation COLAB's
// coordinated allocator/selector removes.
//
// In pipeline terms WASH is therefore a single stage: LabelerStage
// ("wash.labeler"). The registry composes it with the CFS allocator and
// selector stages as the "wash" policy, and aliases "wash.allocator" and
// "wash.selector" to the CFS stages so the composition grammar reads
// naturally.
package wash

import (
	"slices"

	"colab/internal/cpu"
	"colab/internal/kernel"
	"colab/internal/mathx"
	"colab/internal/task"
)

// The WASH heuristic's fixed parameters.
const (
	// Score weights: z(speedup), z(blocking), big-share fairness penalty.
	speedupWeight float64 = 1.0
	blockWeight   float64 = 1.0
	fairWeight    float64 = 0.5
	// blameDecay is the EWMA retention of per-interval blocking blame.
	blameDecay float64 = 0.5
	// band is the score dead-zone inside which threads keep full affinity.
	band float64 = 0.4
)

// LabelerStage is the periodic WASH heuristic as a pipeline stage: one
// mixed multi-factor score per thread, top scorers pinned to big cores, the
// rest to little cores, undifferentiated threads left to the underlying
// scheduler. Its per-thread state lives on the hint board — the predicted
// speedup (Pred), the blame EWMA (Crit) and the blame already folded in
// (LastBlame) — where downstream stages of hybrid pipelines read it.
type LabelerStage struct {
	speedup func(*task.Thread) float64
	pc      *kernel.PipelineContext

	bigMask    task.Mask
	littleMask task.Mask

	// Tier-ranked topology mode (DESIGN.md §3), engaged only on machines
	// with an active topology; flat machines run the legacy two-armed
	// heuristic byte-identically. Threads are ranked by the same mixed
	// score and spread over the full tier ladder proportionally to tier
	// width, each pinned to its home LLC domain's slice of the tier.
	ranked       bool
	tierMasks    []task.Mask
	tierCount    []int
	totalCores   int
	domTierMasks [][]task.Mask // [domain][tier] = tier ∩ domain cores

	// The per-pass buffers are reused by every labeling pass so a pass
	// does not allocate.
	preds      []float64
	blames     []float64
	scores     []float64
	bottleneck []bool
	rankOrder  []int
	quota      []int
}

// NewLabeler returns the WASH labeler stage driven by the speedup
// predictor; nil selects a neutral one.
func NewLabeler(speedup func(*task.Thread) float64) *LabelerStage {
	if speedup == nil {
		speedup = func(*task.Thread) float64 { return kernel.NeutralPred }
	}
	return &LabelerStage{speedup: speedup}
}

// Name implements kernel.Stage.
func (l *LabelerStage) Name() string { return "wash.labeler" }

// Start implements kernel.Stage.
func (l *LabelerStage) Start(pc *kernel.PipelineContext) {
	l.pc = pc
	m := pc.Machine()
	l.bigMask = task.MaskOf(m.TierCoreIDs(m.TopTier()))
	l.littleMask = task.MaskOf(m.TierCoreIDs(0))
	if l.littleMask.IsEmpty() { // symmetric all-big machine: nothing to steer
		l.littleMask = l.bigMask
	}
	l.ranked = m.TopoActive()
	l.tierMasks, l.tierCount, l.domTierMasks, l.totalCores = nil, nil, nil, 0
	if l.ranked {
		nt := m.NumTiers()
		l.tierMasks = make([]task.Mask, nt)
		l.tierCount = make([]int, nt)
		l.quota = make([]int, nt)
		for k := 0; k < nt; k++ {
			ids := m.TierCoreIDs(k)
			l.tierMasks[k] = task.MaskOf(ids)
			l.tierCount[k] = len(ids)
			l.totalCores += len(ids)
		}
		nd := m.NumDomains()
		l.domTierMasks = make([][]task.Mask, nd)
		for d := 0; d < nd; d++ {
			domMask := task.MaskOf(m.DomainCoreIDs(d))
			l.domTierMasks[d] = make([]task.Mask, nt)
			for k := 0; k < nt; k++ {
				l.domTierMasks[d][k] = l.tierMasks[k].And(domMask)
			}
		}
	}
}

// Label implements kernel.Labeler: the periodic scoring pass.
func (l *LabelerStage) Label(threads []*task.Thread) {
	preds, blames := l.preds[:0], l.blames[:0]
	board := l.pc.Hints()
	for _, t := range threads {
		h := board.Get(t)
		h.Pred = l.speedup(t)
		intervalBlame := float64(t.BlockBlame - h.LastBlame)
		h.LastBlame = t.BlockBlame
		h.Crit = blameDecay*h.Crit + (1-blameDecay)*intervalBlame
		t.IntervalCounters = cpu.Vec{}
		preds = append(preds, h.Pred)
		blames = append(blames, h.Crit)
	}
	l.preds, l.blames = preds, blames
	pMean, pStd := mathx.Mean(preds), mathx.Std(preds)
	bMean, bStd := mathx.Mean(blames), mathx.Std(blames)
	scores := slices.Grow(l.scores[:0], len(threads))[:len(threads)]
	bottleneck := slices.Grow(l.bottleneck[:0], len(threads))[:len(threads)]
	l.scores, l.bottleneck = scores, bottleneck
	for i, t := range threads {
		score := speedupWeight*zscore(preds[i], pMean, pStd) +
			blockWeight*zscore(blames[i], bMean, bStd)
		if t.SumExec > 0 {
			bigShare := float64(t.SumExecBig) / float64(t.SumExec)
			score -= fairWeight * (2*bigShare - 1)
		}
		scores[i] = score
		// WASH's characteristic behaviour: every thread that looks like a
		// bottleneck is pushed to the big cores in addition to the high
		// scorers — the over-crowding COLAB's motivating example targets.
		bottleneck[i] = blames[i] > bMean && blames[i] > 0
	}
	if l.ranked {
		l.applyRanked(threads, scores, bottleneck)
		return
	}
	for i, t := range threads {
		// Threads with no clear signal keep full affinity (the heuristic
		// only *biases* placement; undifferentiated threads are left to the
		// underlying Linux scheduler).
		var mask task.Mask
		switch {
		case scores[i] > band || bottleneck[i]:
			mask = l.bigMask
		case scores[i] < -band:
			mask = l.littleMask
		default:
			mask = task.MaskAll()
		}
		l.setMask(t, mask)
	}
}

// setMask updates a thread's affinity, re-placing it when queued — the
// effect sched_setaffinity has on a waiting task.
func (l *LabelerStage) setMask(t *task.Thread, mask task.Mask) {
	if !t.Affinity.Equal(mask) {
		t.Affinity = mask
		l.pc.Requeue(t)
	}
}

// applyRanked is the topology-aware tier-ranked arm: differentiated
// threads (bottlenecks and out-of-band scorers) are ordered by (bottleneck,
// score, ID) and spread over the tier ladder from the top down, each tier
// receiving a share proportional to its core count; a ranked thread is
// pinned to its home LLC domain's slice of the assigned tier (the whole
// tier when the domain has no such cores). Undifferentiated threads keep
// full affinity, exactly like the flat dead-zone.
func (l *LabelerStage) applyRanked(threads []*task.Thread, scores []float64, bottleneck []bool) {
	ranked := l.rankOrder[:0]
	for i := range threads {
		if bottleneck[i] || scores[i] > band || scores[i] < -band {
			ranked = append(ranked, i)
		} else {
			l.setMask(threads[i], task.MaskAll())
		}
	}
	l.rankOrder = ranked
	if len(ranked) == 0 {
		return
	}
	slices.SortFunc(ranked, func(ia, ib int) int {
		if bottleneck[ia] != bottleneck[ib] {
			if bottleneck[ia] {
				return -1
			}
			return 1
		}
		if scores[ia] != scores[ib] {
			if scores[ia] > scores[ib] {
				return -1
			}
			return 1
		}
		return threads[ia].ID - threads[ib].ID
	})
	// Integer tier quotas proportional to tier width, remainders handed to
	// the widest-possible upper tiers first: deterministic, sums to n.
	n := len(ranked)
	quota := l.quota
	assigned := 0
	for k := range quota {
		quota[k] = n * l.tierCount[k] / l.totalCores
		assigned += quota[k]
	}
	for assigned < n {
		for k := len(quota) - 1; k >= 0 && assigned < n; k-- {
			if l.tierCount[k] > 0 {
				quota[k]++
				assigned++
			}
		}
	}
	pos := 0
	for k := len(quota) - 1; k >= 0; k-- {
		for q := 0; q < quota[k]; q++ {
			t := threads[ranked[pos]]
			pos++
			mask := l.domTierMasks[t.HomeDomain][k]
			if mask.IsEmpty() {
				mask = l.tierMasks[k]
			}
			l.setMask(t, mask)
		}
	}
}

func zscore(v, mean, std float64) float64 {
	if std < 1e-12 {
		return 0
	}
	return (v - mean) / std
}

var _ kernel.Labeler = (*LabelerStage)(nil)
