package experiment

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"colab/internal/metrics"
)

func testKey(i int) CellKey {
	return CellKey{Scenario: fmt.Sprintf("s-%d", i), Policy: "linux", Machine: "m#0", Seed: 1, Params: "00"}
}

func TestJournalRecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// Scores with awkward float values must replay bit-identically.
	want := metrics.MixScore{HANTT: 1.0 / 3.0, HSTP: 2.0000000000000004}
	if err := j.Record(testKey(1), want); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(testKey(1), metrics.MixScore{HANTT: 99}); err != nil {
		t.Fatal(err) // duplicate records are no-ops, not errors
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("journal replayed %d cells, want 1", j2.Len())
	}
	got, ok := j2.Lookup(testKey(1))
	if !ok {
		t.Fatal("recorded cell missing after reopen")
	}
	if got != want {
		t.Errorf("replayed score not bit-identical: %v vs %v", got, want)
	}
}

// A kill mid-append leaves a truncated final line; the journal must drop
// it (the cell reruns) and keep every complete record.
func TestJournalToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Record(testKey(i), metrics.MixScore{HANTT: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"half-writ`)
	f.Close()
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("truncated tail must be tolerated: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 3 {
		t.Errorf("journal replayed %d cells, want the 3 complete ones", j2.Len())
	}
}

// A complete last record without its newline stays, and appending after
// it must not weld the next record onto its line.
func TestJournalTerminatesUnterminatedLastRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	if err := os.WriteFile(path, []byte(`{"key":"a|linux|m|1|p","h_antt":1,"h_stp":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(testKey(1), metrics.MixScore{HANTT: 3, HSTP: 4}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen after appending to an unterminated journal: %v", err)
	}
	defer j2.Close()
	if j2.Len() != 2 {
		t.Errorf("journal replayed %d cells, want 2", j2.Len())
	}
	if got, ok := j2.Lookup(testKey(1)); !ok || got != (metrics.MixScore{HANTT: 3, HSTP: 4}) {
		t.Errorf("appended cell = %v, %v", got, ok)
	}
}

// Garbage in the middle of the file is not a kill signature: refuse it.
func TestJournalRejectsCorruptInterior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	if err := os.WriteFile(path, []byte("not json\n{\"key\":\"k\",\"h_antt\":1,\"h_stp\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("corrupt interior line must error")
	}
}

// storeCell stores a scored cell in c through Do.
func storeCell(t *testing.T, c *Cache, key CellKey, score metrics.MixScore) {
	t.Helper()
	if _, _, err := c.Do(context.Background(), key, func() (metrics.MixScore, error) { return score, nil }); err != nil {
		t.Fatal(err)
	}
}

// holdsCell reports whether c holds key, without touching its recency or the
// hit and miss counters.
func holdsCell(c *Cache, key CellKey) bool {
	c.cells.mu.Lock()
	defer c.cells.mu.Unlock()
	_, ok := c.cells.items[key.String()]
	return ok
}

func TestCacheCountsAndStores(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	want := metrics.MixScore{HANTT: 2, HSTP: 3}
	v, cached, err := c.Do(ctx, testKey(1), func() (metrics.MixScore, error) { return want, nil })
	if err != nil || cached || v != want {
		t.Fatalf("first Do = (%v, %v, %v), want computed %v", v, cached, err, want)
	}
	v, cached, err = c.Do(ctx, testKey(1), func() (metrics.MixScore, error) {
		t.Error("hit must not recompute")
		return metrics.MixScore{}, nil
	})
	if err != nil || !cached || v != want {
		t.Fatalf("second Do = (%v, %v, %v), want cached %v", v, cached, err, want)
	}
	if s := c.Stats(); s.Cells != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 1 cell, 1 hit, 1 miss", s)
	}
	// A failed compute must not poison the cache.
	boom := errors.New("boom")
	if _, _, err := c.Do(ctx, testKey(2), func() (metrics.MixScore, error) { return metrics.MixScore{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("compute error not surfaced: %v", err)
	}
	if holdsCell(c, testKey(2)) {
		t.Error("failed compute must not be stored")
	}
}

// Concurrent identical requests must run one compute; the rest wait and
// count as hits.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	var computes int32
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	const waiters = 8
	results := make([]metrics.MixScore, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(context.Background(), testKey(1), func() (metrics.MixScore, error) {
				if atomic.AddInt32(&computes, 1) == 1 {
					close(started)
				}
				<-release
				return metrics.MixScore{HANTT: 7, HSTP: 7}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	<-started
	close(release)
	wg.Wait()
	if n := atomic.LoadInt32(&computes); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if (v != metrics.MixScore{HANTT: 7, HSTP: 7}) {
			t.Errorf("waiter %d got %v", i, v)
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != waiters-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", s, waiters-1)
	}
}

// A cancelled leader must not strand waiters: one of them takes over.
func TestCacheLeaderFailurePromotesWaiter(t *testing.T) {
	c := NewCache()
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	inLeader := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := c.Do(leaderCtx, testKey(1), func() (metrics.MixScore, error) {
			close(inLeader)
			<-leaderCtx.Done()
			return metrics.MixScore{}, leaderCtx.Err()
		})
		if err == nil {
			t.Error("cancelled leader must error")
		}
	}()
	<-inLeader
	waiterCtx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
	waiterDone := make(chan metrics.MixScore, 1)
	go func() {
		v, _, err := c.Do(waiterCtx, testKey(1), func() (metrics.MixScore, error) {
			return metrics.MixScore{HANTT: 5, HSTP: 5}, nil
		})
		if err != nil {
			t.Error(err)
		}
		waiterDone <- v
	}()
	// Cancel the leader only once the waiter waits on it, so the waiter
	// is handed the key rather than arriving after the failure and leading.
	<-waiterCtx.waiting
	cancelLeader()
	<-leaderDone
	if v := <-waiterDone; (v != metrics.MixScore{HANTT: 5, HSTP: 5}) {
		t.Errorf("promoted waiter got %v", v)
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v, want the cancelled leader's and the waiter's misses and no hit", s)
	}
}

// The LRU bound: inserting past the limit evicts the least recently used
// cell, recency is refreshed by hits, and the counters report it all.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache()
	c.SetLimit(2)
	score := func(i int) metrics.MixScore { return metrics.MixScore{HANTT: float64(i)} }
	storeCell(t, c, testKey(1), score(1))
	storeCell(t, c, testKey(2), score(2))
	// Touch key 1 so key 2 is now the least recently used.
	if _, cached, _ := c.Do(context.Background(), testKey(1), func() (metrics.MixScore, error) { return score(1), nil }); !cached {
		t.Fatal("key 1 missing before eviction")
	}
	storeCell(t, c, testKey(3), score(3))
	if holdsCell(c, testKey(2)) {
		t.Error("least recently used cell survived eviction")
	}
	if !holdsCell(c, testKey(1)) {
		t.Error("recently touched cell was evicted")
	}
	if !holdsCell(c, testKey(3)) {
		t.Error("newest cell was evicted")
	}
	st := c.Stats()
	if st.Cells != 2 || st.Limit != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 cells, limit 2, 1 eviction", st)
	}
	// Dropping the limit evicts immediately; lifting it stops evicting.
	c.SetLimit(1)
	if st := c.Stats(); st.Cells != 1 || st.Evictions != 2 {
		t.Errorf("after SetLimit(1): %+v, want 1 cell, 2 evictions", st)
	}
	c.SetLimit(0)
	storeCell(t, c, testKey(4), score(4))
	storeCell(t, c, testKey(5), score(5))
	if st := c.Stats(); st.Cells != 3 || st.Evictions != 2 {
		t.Errorf("unbounded again: %+v, want 3 cells and no new evictions", st)
	}
}

// An evicted cell is recomputed (a counted miss), not resurrected.
func TestCacheEvictedCellRecomputes(t *testing.T) {
	c := NewCache()
	c.SetLimit(1)
	ctx := context.Background()
	computes := 0
	compute := func() (metrics.MixScore, error) {
		computes++
		return metrics.MixScore{HANTT: 7}, nil
	}
	if _, cached, _ := c.Do(ctx, testKey(1), compute); cached {
		t.Fatal("first compute claims cached")
	}
	storeCell(t, c, testKey(2), metrics.MixScore{}) // evicts key 1
	if _, cached, _ := c.Do(ctx, testKey(1), compute); cached {
		t.Fatal("evicted cell claims cached")
	}
	if computes != 2 {
		t.Fatalf("computed %d times, want 2", computes)
	}
	// Key 1 misses twice and key 2 once.
	st := c.Stats()
	if st.Misses != 3 || st.Evictions == 0 {
		t.Errorf("stats = %+v, want 3 misses and at least 1 eviction", st)
	}
}

// Do under a tight limit with concurrent waiters: the waiter path must
// return the leader's result even when the stored cell is immediately
// evicted again.
func TestCacheSingleflightUnderTightLimit(t *testing.T) {
	c := NewCache()
	c.SetLimit(1)
	ctx := context.Background()
	var wg sync.WaitGroup
	var computes atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				score, _, err := c.Do(ctx, testKey(k), func() (metrics.MixScore, error) {
					computes.Add(1)
					return metrics.MixScore{HANTT: float64(k)}, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if score.HANTT != float64(k) {
					t.Errorf("key %d returned score %v", k, score.HANTT)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Cells > 1 {
		t.Errorf("cache holds %d cells over its limit of 1", st.Cells)
	}
	_ = computes.Load() // recomputes are allowed under eviction; wrong scores are not
}

// CompactJournal drops duplicate and torn records, keeps first
// occurrences verbatim, and replays to the identical cell set.
func TestCompactJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ndjson")
	want := metrics.MixScore{HANTT: 1.0 / 3.0, HSTP: 2.0000000000000004}
	lines := ""
	add := func(key CellKey, s metrics.MixScore) {
		rec, _ := json.Marshal(JournalRecord{Key: key.String(), HANTT: s.HANTT, HSTP: s.HSTP})
		lines += string(rec) + "\n"
	}
	add(testKey(1), want)
	add(testKey(2), metrics.MixScore{HANTT: 2})
	add(testKey(1), metrics.MixScore{HANTT: 99}) // superseded duplicate
	add(testKey(2), metrics.MixScore{HANTT: 2})  // identical duplicate
	lines += `{"key":"torn`                      // crash mid-append
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	kept, dropped, err := CompactJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 || dropped != 2 {
		t.Errorf("kept %d dropped %d, want 2 and 2 (the torn tail is not counted)", kept, dropped)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 {
		t.Fatalf("compacted journal replays %d cells, want 2", j.Len())
	}
	if got, ok := j.Lookup(testKey(1)); !ok || got != want {
		t.Errorf("first occurrence not kept verbatim: %v, want %v", got, want)
	}
	// Compacting a compacted journal is a no-op.
	kept2, dropped2, err := CompactJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept2 != 2 || dropped2 != 0 {
		t.Errorf("recompaction kept %d dropped %d, want 2 and 0", kept2, dropped2)
	}
}

// CompactJournal on a missing or empty journal is clean.
func TestCompactJournalEdges(t *testing.T) {
	if _, _, err := CompactJournal(filepath.Join(t.TempDir(), "absent.ndjson")); err == nil {
		t.Error("compacting a missing journal must error")
	}
	path := filepath.Join(t.TempDir(), "empty.ndjson")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	kept, dropped, err := CompactJournal(path)
	if err != nil || kept != 0 || dropped != 0 {
		t.Errorf("empty journal: kept %d dropped %d err %v, want zeros", kept, dropped, err)
	}
}

// A file-less journal replays its records bit-identically — the
// mechanism a fleet worker seeds a reassigned shard with — while a closed
// file journal refuses Record instead of silently keeping the cell in
// memory only.
func TestMemJournalReplaysAndClosedFileJournalRefuses(t *testing.T) {
	recs := []JournalRecord{
		{Key: testKey(1).String(), HANTT: 1.0 / 3.0, HSTP: 2.0000000000000004},
		{Key: testKey(2).String(), HANTT: 5, HSTP: 6},
	}
	mem := NewJournal(recs)
	if mem.Len() != 2 {
		t.Fatalf("file-less journal holds %d cells, want 2", mem.Len())
	}
	got, ok := mem.Lookup(testKey(1))
	if !ok || got.HANTT != 1.0/3.0 || got.HSTP != 2.0000000000000004 {
		t.Errorf("file-less journal not bit-identical: %v", got)
	}
	if err := mem.Record(testKey(3), metrics.MixScore{HANTT: 7, HSTP: 8}); err != nil {
		t.Fatalf("file-less Record: %v", err)
	}
	if got, ok := mem.Lookup(testKey(3)); !ok || got.HANTT != 7 {
		t.Errorf("file-less journal lost a recorded cell: %v %v", got, ok)
	}

	path := filepath.Join(t.TempDir(), "ck.ndjson")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(testKey(1), metrics.MixScore{HANTT: 1, HSTP: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Record(testKey(2), metrics.MixScore{HANTT: 2, HSTP: 2}); err == nil {
		t.Fatal("Record after Close on a file journal succeeded; the cell would not be durable")
	}
	if _, ok := j.Lookup(testKey(2)); ok {
		t.Error("refused cell is visible to lookups")
	}
	if _, ok := j.Lookup(testKey(1)); !ok {
		t.Error("closed journal stopped answering lookups")
	}
}
