package colab_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	colab "colab"
)

// goldenSubset is the golden-corpus subset the distribution-layer
// equivalence tests sweep: Table 4 indices plus an open-system arrival
// variant (which shares the closed scenarios' baselines), over two paper
// policies and two seeds.
func goldenSubset(extra ...colab.ExperimentOption) *colab.Experiment {
	opts := []colab.ExperimentOption{
		colab.WithWorkloads("Sync-1", "Comp-1", "Sync-1@arrive=poisson(5ms)"),
		colab.WithMachine(colab.Config2B2S),
		colab.WithPolicies("linux", "wash"),
		colab.WithSeeds(1, 2),
	}
	return colab.NewExperiment(append(opts, extra...)...)
}

func runCSV(t *testing.T, exp *colab.Experiment) string {
	t.Helper()
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestShardUnionDeterminism is the sharding guarantee: for every shard
// count and worker count, the merged union of independently run shards is
// byte-identical to the unsharded in-process run on the golden-corpus
// subset.
func TestShardUnionDeterminism(t *testing.T) {
	ref := runCSV(t, goldenSubset())
	if got := len(strings.Split(strings.TrimSpace(ref), "\n")); got != 1+12 {
		t.Fatalf("reference csv has %d lines, want header + 12 cells:\n%s", got, ref)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4, 8} {
			pieces := make([]*colab.ExperimentResults, shards)
			total := 0
			for idx := 0; idx < shards; idx++ {
				// Every shard is a fresh session: no shared memo caches, as
				// with separate processes.
				res, err := goldenSubset(
					colab.WithShard(idx, shards),
					colab.WithWorkers(workers),
				).Run(context.Background())
				if err != nil {
					t.Fatalf("shard %d/%d workers=%d: %v", idx, shards, workers, err)
				}
				pieces[idx] = res
				total += len(res.Cells)
			}
			if total != 12 {
				t.Fatalf("shards %d workers %d cover %d cells, want 12", shards, workers, total)
			}
			merged, err := goldenSubset().MergeShards(pieces...)
			if err != nil {
				t.Fatalf("merge %d shards: %v", shards, err)
			}
			var buf bytes.Buffer
			if err := merged.WriteCSV(&buf); err != nil {
				t.Fatal(err)
			}
			if buf.String() != ref {
				t.Errorf("shards=%d workers=%d union differs from unsharded run:\n--- unsharded\n%s\n--- merged\n%s",
					shards, workers, ref, buf.String())
			}
		}
	}
}

func TestMergeShardsValidation(t *testing.T) {
	full, err := goldenSubset().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := goldenSubset().MergeShards(full, full); err == nil ||
		!strings.Contains(err.Error(), "surplus") {
		t.Errorf("duplicated shard must be rejected, got: %v", err)
	}
	shard0, err := goldenSubset(colab.WithShard(0, 2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := goldenSubset().MergeShards(shard0); err == nil ||
		!strings.Contains(err.Error(), "missing cell") {
		t.Errorf("incomplete union must name the missing cell, got: %v", err)
	}
}

// A session that repeats an axis value runs the repeated cells once per
// occurrence; merging its shards must still reproduce the unsharded run
// byte for byte. An invalid session spec fails the merge as it fails Run.
func TestMergeShardsRepeatedAxis(t *testing.T) {
	session := func(extra ...colab.ExperimentOption) *colab.Experiment {
		opts := []colab.ExperimentOption{
			colab.WithWorkloads("Sync-1", "Comp-1"),
			colab.WithPolicies("linux", "colab", "linux"),
		}
		return colab.NewExperiment(append(opts, extra...)...)
	}
	ref := runCSV(t, session())
	var pieces []*colab.ExperimentResults
	for idx := 0; idx < 2; idx++ {
		res, err := session(colab.WithShard(idx, 2)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cells) == 0 {
			t.Fatalf("shard %d ran no cells; the merge would not interleave shards", idx)
		}
		pieces = append(pieces, res)
	}
	merged, err := session().MergeShards(pieces...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := merged.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != ref {
		t.Errorf("merged shards differ from the unsharded run:\n--- unsharded\n%s\n--- merged\n%s", ref, buf.String())
	}
	if _, err := session(colab.WithPolicies("nope")).MergeShards(pieces...); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Errorf("merge of an invalid session must name the bad policy, got: %v", err)
	}
}

func TestShardValidation(t *testing.T) {
	if _, err := goldenSubset(colab.WithShard(2, 2)).Run(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "shard") {
		t.Errorf("out-of-range shard index must error, got: %v", err)
	}
	if _, err := goldenSubset(colab.WithShard(-1, -2)).Run(context.Background()); err == nil {
		t.Error("negative shard coordinates must error")
	}
}

// TestCheckpointKillResume kills a journaled sweep mid-run, resumes it
// over the same journal, and requires the resumed run's output to be
// byte-identical to an uninterrupted run — with the pre-kill cells
// replayed, not recomputed.
func TestCheckpointKillResume(t *testing.T) {
	ref := runCSV(t, goldenSubset())
	path := filepath.Join(t.TempDir(), "sweep.ndjson")

	// First attempt: cancel the run as soon as the first cell lands —
	// the observer fires mid-sweep, exactly like a kill signal.
	ctx, cancel := context.WithCancel(context.Background())
	killed := 0
	_, err := goldenSubset(
		colab.WithCheckpoint(path),
		colab.WithWorkers(2),
		colab.WithObserver(func(colab.ExperimentResult) {
			killed++
			cancel()
		}),
	).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run must surface ctx.Err(), got %v", err)
	}
	if killed == 0 {
		t.Fatal("observer never fired before the kill")
	}
	data, err := os.ReadFile(path)
	if err != nil || len(bytes.TrimSpace(data)) == 0 {
		t.Fatalf("journal empty after kill (err=%v): the completed cells were lost", err)
	}

	// Simulate the kill landing mid-append: a torn trailing record must
	// not block the resume.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, `{"key":"torn-by-kill`)
	f.Close()

	// Resume: same spec, same journal.
	replayed := 0
	resumed, err := goldenSubset(
		colab.WithCheckpoint(path),
		colab.WithObserver(func(c colab.ExperimentResult) {
			if c.Cached {
				replayed++
			}
		}),
	).Run(context.Background())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if replayed == 0 {
		t.Error("resume recomputed every cell; journal was not replayed")
	}
	var buf bytes.Buffer
	if err := resumed.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != ref {
		t.Errorf("resumed output differs from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", ref, buf.String())
	}

	// A third run over the now-complete journal replays everything.
	again, err := goldenSubset(colab.WithCheckpoint(path)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range again.Cells {
		if !c.Cached {
			t.Errorf("cell %v recomputed despite a complete journal", c.Run)
		}
	}
}

// Observer delivery must be the deterministic cross-product order, not
// completion order, at any worker count — and must match both the final
// Cells slice and the Each iterator.
func TestObserverDeterministicOrder(t *testing.T) {
	var streamed []colab.ExperimentResult
	res, err := goldenSubset(
		colab.WithWorkers(8),
		colab.WithObserver(func(c colab.ExperimentResult) { streamed = append(streamed, c) }),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Cells) {
		t.Fatalf("observer saw %d cells, results hold %d", len(streamed), len(res.Cells))
	}
	i := 0
	res.Each(func(c colab.ExperimentResult) bool {
		if streamed[i] != c {
			t.Errorf("cell %d: streamed %+v, results %+v", i, streamed[i], c)
		}
		i++
		return true
	})
	// Each must honour an early stop.
	n := 0
	res.Each(func(colab.ExperimentResult) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("Each ignored early stop: %d yields", n)
	}
}

// A shared CellCache must answer a repeated identical session entirely
// from cache, and overlapping sessions must share cells.
func TestCellCacheAcrossSessions(t *testing.T) {
	cache := colab.NewCellCache()
	first, err := goldenSubset(colab.WithCellCache(cache)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range first.Cells {
		if c.Cached {
			t.Fatalf("cold cache served cell %v", c.Run)
		}
	}
	afterFirst := cache.Stats()
	if afterFirst.Misses == 0 || afterFirst.Cells == 0 {
		t.Fatalf("cold run recorded no misses: %+v", afterFirst)
	}
	second, err := goldenSubset(colab.WithCellCache(cache)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range second.Cells {
		if !c.Cached {
			t.Errorf("warm cache recomputed cell %v", c.Run)
		}
	}
	s := cache.Stats()
	if s.Misses != afterFirst.Misses {
		t.Errorf("second identical session missed the cache: %+v vs %+v", s, afterFirst)
	}
	if s.Hits < uint64(len(second.Cells)) {
		t.Errorf("second session hits = %d, want >= %d", s.Hits, len(second.Cells))
	}
	// Scores must be identical cell for cell.
	for i := range first.Cells {
		if first.Cells[i].Score != second.Cells[i].Score || first.Cells[i].Key != second.Cells[i].Key {
			t.Errorf("cached cell diverged: %+v vs %+v", first.Cells[i], second.Cells[i])
		}
	}
}

// The key carried on every result must round-trip through the public
// parser and carry the canonical coordinates.
func TestExperimentResultKeys(t *testing.T) {
	res, err := colab.NewExperiment(
		colab.WithWorkloads("ferret:4 + bodytrack:8"),
		colab.WithPolicies("linux"),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(res.Cells))
	}
	k := res.Cells[0].Key
	if k.Scenario != "ferret:4+bodytrack:8" {
		t.Errorf("key scenario %q not canonical", k.Scenario)
	}
	if k.Policy != "linux" || k.Seed != 1 {
		t.Errorf("key coordinates wrong: %+v", k)
	}
	back, err := colab.ParseCellKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Errorf("public round trip changed key: %+v -> %+v", k, back)
	}
}
