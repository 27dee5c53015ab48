package colab

import "colab/internal/experiment"

// CellKey is the canonical closed-form identity of one experiment cell:
// the canonical scenario-grammar form, the canonical policy (stage
// composition) name, the machine fingerprint (config name + structural
// digest), the workload seed and a digest of the normalised kernel
// parameters. Two cells with equal keys are guaranteed byte-identical, so
// CellKey is the single content address shared by baseline dedup inside a
// sweep, the checkpoint journal (WithCheckpoint) and the colab-serve cell
// cache (CellCache) — replacing the ad-hoc key strings those layers used
// to derive independently.
//
// CellKey is comparable; String() renders a stable one-line form (equal
// keys render identically across runs and processes) and ParseCellKey
// round-trips it exactly. Every cell of an Experiment's results carries
// its key (ExperimentResult.Key).
type CellKey = experiment.CellKey

// ParseCellKey parses a CellKey.String() rendering back into the key.
func ParseCellKey(s string) (CellKey, error) { return experiment.ParseCellKey(s) }

// CellCache is a concurrency-safe, content-addressed store of scored
// cells keyed by CellKey — the shared layer that lets repeated and
// overlapping experiment runs (and colab-serve requests) answer common
// cells without recomputing them. Identical in-flight cells are
// deduplicated: when two concurrent runs race on one cell, the second
// waits for the first's result. Beside its cells the cache keeps the
// big-only-alone baselines they are scored against, so a cell it misses
// reuses every baseline an earlier run computed. Hand one cache to many
// sessions with WithCellCache; Stats exposes the hit/miss counters, which
// count cells only.
type CellCache = experiment.Cache

// CellCacheOption configures a CellCache at construction.
type CellCacheOption func(*CellCache)

// WithCellCacheLimit bounds the cache to at most maxEntries cells with
// least-recently-used eviction: every hit, store and computed fill
// refreshes a cell's recency, and inserting past the bound drops the
// least recently used cell. Evictions are counted in CacheStats. The
// cache's baselines are bounded separately to maxEntries baselines.
// maxEntries <= 0 leaves the cache unbounded (the default).
func WithCellCacheLimit(maxEntries int) CellCacheOption {
	return func(c *CellCache) { c.SetLimit(maxEntries) }
}

// NewCellCache returns an empty cell cache, unbounded unless configured
// with WithCellCacheLimit.
func NewCellCache(opts ...CellCacheOption) *CellCache {
	c := experiment.NewCache()
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// CacheStats is a point-in-time snapshot of a CellCache's counters.
type CacheStats = experiment.CacheStats

// CompactJournal rewrites a checkpoint journal (WithCheckpoint) in
// place, dropping duplicate records (the first occurrence of each cell
// key is kept verbatim) and any torn final line from a crash mid-write.
// The rewrite is atomic — a crash during compaction leaves the original
// journal intact — and the compacted journal replays to the identical
// cell set. It returns the records kept and dropped. The colab-fleet
// binary exposes this as -compact.
func CompactJournal(path string) (kept, dropped int, err error) {
	return experiment.CompactJournal(path)
}
