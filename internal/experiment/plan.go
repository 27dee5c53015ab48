package experiment

import (
	"fmt"

	"colab/internal/cpu"
	"colab/internal/workload"
)

// planCell is one cell of a batch's deterministic execution plan: the
// resolved axes the run needs plus the shard that owns the cell. The plan
// is a pure function of the batch spec, so every process (each shard of a
// sweep, or a fleet coordinator and its workers) derives the identical
// assignment independently.
type planCell struct {
	spec  workload.Spec
	cfg   cpu.Config
	seed  uint64
	group int // baseline-sharing group, numbered in first-appearance order
	shard int
	key   BatchKey
	ck    CellKey
}

// planCells enumerates the full cross-product in deterministic order
// (seeds outermost, then scenarios, configs, policies innermost) and
// annotates every cell with its owning shard. Shard assignment works in
// baseline-sharing groups: all cells of one (seed, closed canonical
// scenario) share their big-only-alone baselines, so they travel together
// and no baseline is ever computed by two shards. Groups are numbered in
// first-appearance order and dealt round-robin.
func (b *Batch) planCells() []planCell {
	groups := make(map[string]int)
	var cells []planCell
	for _, seed := range b.Seeds {
		for _, spec := range b.Scenarios {
			group := fmt.Sprintf("%d|%s", seed, spec.Closed().Canonical())
			gi, ok := groups[group]
			if !ok {
				gi = len(groups)
				groups[group] = gi
			}
			shard := 0
			if b.ShardCount > 1 {
				shard = gi % b.ShardCount
			}
			for _, cfg := range b.Configs {
				for _, kind := range b.Policies {
					cells = append(cells, planCell{
						spec:  spec,
						cfg:   cfg,
						seed:  seed,
						group: gi,
						shard: shard,
						key:   BatchKey{Workload: spec.Name, Config: cfg.Name, Policy: kind, Seed: seed},
						ck:    NewCellKey(spec, kind, cfg, seed, b.Params),
					})
				}
			}
		}
	}
	return cells
}

// PlannedCell is one cell of a batch's execution plan as seen from
// outside: its global cross-product index, the shard that owns it, and
// both of its identities (the sweep coordinates and the canonical content
// address). The fleet coordinator plans a sweep with the worker count as
// ShardCount and uses the result to know, for every shard, exactly which
// cells — and in which order — the worker executing that shard will
// stream back.
type PlannedCell struct {
	Index   int
	Shard   int
	Key     BatchKey
	CellKey CellKey
}

// Plan validates the batch and returns its full deterministic execution
// plan: every cell of the cross-product (all shards, regardless of the
// batch's own ShardIndex), in the exact order an unsharded Run returns
// them. A sharded Run executes the subsequence of cells whose Shard
// matches its ShardIndex, preserving this order.
func (b *Batch) Plan() ([]PlannedCell, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	cells := b.planCells()
	out := make([]PlannedCell, len(cells))
	for i, c := range cells {
		out[i] = PlannedCell{Index: i, Shard: c.shard, Key: c.key, CellKey: c.ck}
	}
	return out, nil
}
