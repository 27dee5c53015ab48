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
// per-shard retry with exponential backoff, reassignment of a dead
// worker's shard to a survivor (shipping the coordinator's copy of the
// failed shard's checkpoint journal so completed cells replay instead of
// recomputing), and idempotent result ingestion that tolerates duplicate
// cells from retried shards.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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

// resolve materialises the spec's axes through the process-wide
// registries. The coordinator (to plan), every worker (to run) and
// colab-serve (to answer a query) resolve specs the same way, so they
// agree on the plan by construction. Errors carry no prefix; each front
// end adds its own.
func (s Spec) resolve() (specs []workload.Spec, cfgs []cpu.Config, err error) {
	if len(s.Workloads) == 0 || len(s.Machines) == 0 || len(s.Policies) == 0 || len(s.Seeds) == 0 {
		return nil, nil, fmt.Errorf("spec needs at least one workload, machine, policy and seed")
	}
	for _, w := range s.Workloads {
		spec, err := workload.ResolveSpec(w)
		if err != nil {
			return nil, nil, err
		}
		if terms := spec.TraceFiles(); len(terms) != 0 {
			return nil, nil, fmt.Errorf("workload %q replays the local trace file of term %q; sweeps resolve workloads by name, so inline the times with @arrive=trace(...)", w, terms[0])
		}
		specs = append(specs, spec)
	}
	for _, name := range s.Machines {
		cfg, ok := cpu.ConfigByName(name)
		if !ok {
			known := make([]string, 0, 4)
			for _, c := range cpu.NamedConfigs() {
				known = append(known, c.Name)
			}
			return nil, nil, fmt.Errorf("unknown machine %q (known: %s)", name, strings.Join(known, ", "))
		}
		cfgs = append(cfgs, cfg)
	}
	return specs, cfgs, nil
}

// Batch builds the experiment batch of the spec's shard shardIndex of
// shardCount. The coordinator plans from it (ShardCount = fleet width),
// and the worker and colab-serve run it.
func (s Spec) Batch(shardIndex, shardCount int) (*experiment.Batch, error) {
	specs, cfgs, err := s.resolve()
	if err != nil {
		return nil, err
	}
	return &experiment.Batch{
		Scenarios:  specs,
		Configs:    cfgs,
		Policies:   s.Policies,
		Seeds:      s.Seeds,
		Params:     s.Params,
		Workers:    s.Workers,
		ShardIndex: shardIndex,
		ShardCount: shardCount,
	}, nil
}

// Cell is the one NDJSON line type of every /run stream — a fleet
// worker's, colab-serve's, and colab-fleet's stdout: the sweep
// coordinates, the scenario's @class= label (set by colab-serve only,
// omitted when empty), the auto-baselined scores, the canonical content
// address, and whether the cell was answered from a cache or a
// checkpoint journal rather than simulated. Scores travel as JSON numbers
// in shortest-round-trip form, so a decoded cell is bit-identical to the
// computed one.
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
// {"error": ...} line Stream writes when a run fails after streaming
// began.
type streamLine struct {
	Cell
	Error string `json:"error,omitempty"`
}

// Stream runs b and writes its cells to rw as NDJSON, one Cell per line
// in the batch's deterministic order, flushed as each lands. The 200
// header goes out with the first cell, so a run that fails before any
// cell is a clean 400 (its message prefixed with prefix), and one that
// fails later ends the stream with an in-band {"error": ...} line. Every
// cell passes through each (when non-nil) before it is written: each may
// amend the line, and an error from it stops the run with nothing more
// written, leaving the caller to end the response. Stream returns the
// run's error, or the one that stopped it.
func Stream(ctx context.Context, rw http.ResponseWriter, b *experiment.Batch, prefix string, each func(*Cell) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	enc := json.NewEncoder(rw)
	flusher, _ := rw.(http.Flusher)
	var (
		streamed int
		stopped  error
	)
	b.Observer = func(bc experiment.BatchCell) {
		if stopped != nil {
			return
		}
		c := Cell{
			Workload: bc.Key.Workload,
			Machine:  bc.Key.Config,
			Policy:   bc.Key.Policy,
			Seed:     bc.Key.Seed,
			HANTT:    bc.Score.HANTT,
			HSTP:     bc.Score.HSTP,
			Key:      bc.CellKey.String(),
			Cached:   bc.Cached,
		}
		if each != nil {
			if stopped = each(&c); stopped != nil {
				cancel()
				return
			}
		}
		if streamed == 0 {
			rw.Header().Set("Content-Type", "application/x-ndjson")
			rw.WriteHeader(http.StatusOK)
		}
		streamed++
		if stopped = enc.Encode(c); stopped != nil {
			cancel() // the client hung up; stop computing for nobody
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	_, err := b.Run(ctx)
	if stopped != nil {
		return stopped
	}
	if err != nil {
		if streamed == 0 {
			http.Error(rw, prefix+err.Error(), http.StatusBadRequest)
		} else {
			enc.Encode(map[string]string{"error": err.Error()})
		}
	}
	return err
}

// registration is the body of a worker's POST to the coordinator's
// /register and /heartbeat: the URL the coordinator should dispatch to.
type registration struct {
	URL string `json:"url"`
}

// WorkerStats is a point-in-time snapshot of a worker daemon's counters,
// served on its /stats endpoint next to its cell-cache stats.
type WorkerStats struct {
	// ShardsRun counts /run requests accepted (including failed ones).
	ShardsRun uint64 `json:"shards_run"`
	// CellsStreamed counts result cells streamed back to coordinators.
	CellsStreamed uint64 `json:"cells_streamed"`
	// JournalSeeded counts checkpoint records received from coordinators
	// on shard reassignment and replayed instead of recomputed.
	JournalSeeded uint64 `json:"journal_seeded"`
	// Cache is the worker's cell-cache counters.
	Cache experiment.CacheStats `json:"cache"`
}
