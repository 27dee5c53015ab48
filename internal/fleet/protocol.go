// Package fleet is the multi-host coordination layer of the sweep engine:
// a coordinator that deals deterministic shard assignments of one
// experiment sweep to registered worker daemons over HTTP, streams each
// worker's per-cell NDJSON results back, and reassembles the union —
// byte-identical to the same sweep run unsharded in one process.
//
// The division of labour with internal/experiment is strict: experiment
// owns what a sweep *is* (the cross-product plan, shard assignment by
// baseline-sharing group, cell identity via CellKey, checkpoint journals,
// the cell cache), while fleet owns only *where* shards run and how
// failures are survived — worker registration with liveness heartbeats,
// one liveness rule (a worker is live until its heartbeat times out or a
// dispatch to it fails), reassignment of a failed shard to a live worker
// (shipping the coordinator's copy of the shard's checkpoint journal so
// completed cells replay instead of recomputing), and idempotent result
// ingestion that tolerates duplicate cells from retried shards.
package fleet

import (
	"fmt"
	"strings"

	"colab/internal/cpu"
	"colab/internal/experiment"
	"colab/internal/kernel"
	"colab/internal/workload"
)

// Spec is the wire form of one sweep: the session axes shipped from the
// coordinator to every worker. All fields are registry names or grammar
// strings, resolved identically on both sides through the process-wide
// registries — a worker binary must have the same policies, scenarios and
// named machines registered as the coordinator.
type Spec struct {
	// Workloads are scenario names or scenario-grammar specs (resolved via
	// workload.ResolveSpec). At least one is required.
	Workloads []string `json:"workloads"`
	// Machines are registered machine-config names (cpu.ConfigByName).
	// At least one is required.
	Machines []string `json:"machines"`
	// Policies are registry policy names or composition-grammar strings.
	// At least one is required.
	Policies []string `json:"policies"`
	// Seeds drive workload generation; at least one is required.
	Seeds []uint64 `json:"seeds"`
	// Params are the kernel cost parameters (all numeric, so they travel
	// exactly; the zero value selects the defaults, as everywhere else).
	Params kernel.Params `json:"params"`
	// Workers bounds each worker daemon's run parallelism for this sweep
	// (0 = the worker's GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
}

// Machines resolves named machine shapes, naming the known ones when a
// name is not among them.
func Machines(names []string) ([]cpu.Config, error) {
	cfgs := make([]cpu.Config, len(names))
	for i, name := range names {
		var ok bool
		if cfgs[i], ok = cpu.ConfigByName(name); !ok {
			var known []string
			for _, c := range cpu.NamedConfigs() {
				known = append(known, c.Name)
			}
			return nil, fmt.Errorf("unknown machine %q (known: %s)", name, strings.Join(known, ", "))
		}
	}
	return cfgs, nil
}

// Batch builds and validates the experiment batch of the spec's shard
// shardIndex of shardCount, resolving the axes through the process-wide
// registries. The coordinator plans from it (ShardCount = fleet width)
// and every worker runs it, so they agree on the plan by construction.
// Errors carry no prefix.
func (s Spec) Batch(shardIndex, shardCount int) (*experiment.Batch, error) {
	if len(s.Workloads) == 0 || len(s.Machines) == 0 || len(s.Policies) == 0 || len(s.Seeds) == 0 {
		return nil, fmt.Errorf("spec needs at least one workload, machine, policy and seed")
	}
	b := &experiment.Batch{
		Policies:   s.Policies,
		Seeds:      s.Seeds,
		Params:     s.Params,
		Workers:    s.Workers,
		ShardIndex: shardIndex,
		ShardCount: shardCount,
	}
	for _, w := range s.Workloads {
		spec, err := workload.ResolveSpec(w)
		if err != nil {
			return nil, err
		}
		if terms := spec.TraceFiles(); len(terms) != 0 {
			return nil, fmt.Errorf("workload %q replays the local trace file of term %q; sweeps resolve workloads by name, so inline the times with @arrive=trace(...)", w, terms[0])
		}
		b.Scenarios = append(b.Scenarios, spec)
	}
	var err error
	if b.Configs, err = Machines(s.Machines); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// Cell is the one NDJSON line type of every /run stream and of
// colab-fleet's stdout: the sweep coordinates, the scenario's @class=
// label (set on every /run stream, omitted when empty; the coordinator
// and colab-fleet's stdout ignore it), the auto-baselined scores, the
// canonical content address, and whether the cell was answered from a
// cache or a checkpoint journal rather than simulated. Scores travel as
// JSON numbers in shortest-round-trip form, so a decoded cell is
// bit-identical to the computed one.
type Cell struct {
	Workload string  `json:"workload"`
	Class    string  `json:"class,omitempty"`
	Machine  string  `json:"machine"`
	Policy   string  `json:"policy"`
	Seed     uint64  `json:"seed"`
	HANTT    float64 `json:"h_antt"`
	HSTP     float64 `json:"h_stp"`
	Key      string  `json:"cell_key"`
	Cached   bool    `json:"cached"`
}

// runRequest is the body of a coordinator's POST to a worker's /run: the
// sweep spec, the shard this worker is to execute, and — on reassignment
// of a failed shard — the coordinator's copy of the shard's checkpoint
// journal, which the worker replays so already-streamed cells are not
// recomputed.
type runRequest struct {
	Spec       Spec                       `json:"spec"`
	ShardIndex int                        `json:"shard_index"`
	ShardCount int                        `json:"shard_count"`
	Journal    []experiment.JournalRecord `json:"journal,omitempty"`
}

// streamLine decodes one line of a /run stream: a Cell, or the terminal
// {"error": ...} line a worker writes when a run fails after streaming
// began.
type streamLine struct {
	Cell
	Error string `json:"error,omitempty"`
}

// registration is the body of a worker's POST to the coordinator's
// /register and /heartbeat: the URL the coordinator should dispatch to.
type registration struct {
	URL string `json:"url"`
}

// WorkerStats is a point-in-time snapshot of a worker daemon's counters,
// served on its /stats endpoint. They cover coordinator shards and
// queries alike.
type WorkerStats struct {
	// Requests counts /run requests received, rejected and failed ones
	// included.
	Requests uint64 `json:"requests"`
	// CellsServed counts cells streamed back.
	CellsServed uint64 `json:"cells_served"`
	// Rejected counts requests shed with 429 at the MaxConcurrent bound.
	Rejected uint64 `json:"rejected"`
	// Inflight counts /run requests being served (and, briefly, one being shed).
	Inflight int64 `json:"inflight"`
	// JournalSeeded counts checkpoint records received from coordinators
	// on shard reassignment and replayed instead of recomputed.
	JournalSeeded uint64 `json:"journal_seeded"`
	// Cache is the worker's cell-cache counters.
	Cache experiment.CacheStats `json:"cache"`
}
