package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	colab "colab"
	"colab/internal/fleet"
)

type statsReply struct {
	Requests    uint64           `json:"requests"`
	CellsServed uint64           `json:"cells_served"`
	Rejected    uint64           `json:"rejected"`
	Inflight    int64            `json:"inflight"`
	Cache       colab.CacheStats `json:"cache"`
}

func getStats(t *testing.T, ts *httptest.Server) statsReply {
	t.Helper()
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s statsReply
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

func runCells(t *testing.T, ts *httptest.Server, query string) []fleet.Cell {
	t.Helper()
	resp, err := http.Get(ts.URL + "/run?" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run?%s -> %s", query, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q, want application/x-ndjson", ct)
	}
	var cells []fleet.Cell
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var c fleet.Cell
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		cells = append(cells, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return cells
}

// A sweep request streams one NDJSON object per cell in the sweep's
// deterministic cross-product order, and a second identical request is
// answered entirely from the shared cache.
func TestRunStreamsAndCaches(t *testing.T) {
	ts := httptest.NewServer(newServer(serverOptions{}))
	defer ts.Close()

	const query = "workload=Sync-1&policy=linux,wash&seed=1,2&workers=4"
	first := runCells(t, ts, query)
	if len(first) != 4 {
		t.Fatalf("got %d cells, want 4 (2 policies x 2 seeds)", len(first))
	}
	wantOrder := []struct {
		policy string
		seed   uint64
	}{{"linux", 1}, {"wash", 1}, {"linux", 2}, {"wash", 2}}
	for i, c := range first {
		if c.Policy != wantOrder[i].policy || c.Seed != wantOrder[i].seed {
			t.Errorf("cell %d is (%s, seed %d), want (%s, seed %d)",
				i, c.Policy, c.Seed, wantOrder[i].policy, wantOrder[i].seed)
		}
		if c.Workload != "Sync-1" || c.Machine == "" || c.Key == "" {
			t.Errorf("cell %d incomplete: %+v", i, c)
		}
		if c.Cached {
			t.Errorf("cold-cache cell %d claims cached", i)
		}
		if _, err := colab.ParseCellKey(c.Key); err != nil {
			t.Errorf("cell %d key %q does not parse: %v", i, c.Key, err)
		}
	}

	second := runCells(t, ts, query)
	if len(second) != len(first) {
		t.Fatalf("repeat request returned %d cells, want %d", len(second), len(first))
	}
	for i := range second {
		if !second[i].Cached {
			t.Errorf("repeat cell %d recomputed", i)
		}
		want := first[i]
		want.Cached = true
		if second[i] != want {
			t.Errorf("repeat cell %d diverged: %+v vs %+v", i, second[i], first[i])
		}
	}

	s := getStats(t, ts)
	if s.Cache.Hits < uint64(len(second)) {
		t.Errorf("cache hits = %d after repeat request, want >= %d", s.Cache.Hits, len(second))
	}
	if s.Requests < 2 || s.CellsServed != uint64(len(first)+len(second)) {
		t.Errorf("counters %+v, want 2 requests and %d cells", s, len(first)+len(second))
	}
}

// The cache is content-addressed on canonical coordinates: a different
// spelling of the same scenario and policy composition hits it.
func TestCacheIsSpellingIndependent(t *testing.T) {
	ts := httptest.NewServer(newServer(serverOptions{}))
	defer ts.Close()

	a := runCells(t, ts, "workload="+
		"ferret:4%2Bbodytrack:8&policy=wash.labeler")
	b := runCells(t, ts, "workload="+
		"+ferret:4+%2B+bodytrack:8+&policy=linux.selector%2Bwash.labeler%2Blinux.allocator")
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("got %d and %d cells, want 1 each", len(a), len(b))
	}
	if a[0].Key != b[0].Key {
		t.Fatalf("spellings produced distinct keys:\n%s\n%s", a[0].Key, b[0].Key)
	}
	if !b[0].Cached {
		t.Error("respelled request missed the cache")
	}
	if a[0].HANTT != b[0].HANTT || a[0].HSTP != b[0].HSTP {
		t.Errorf("respelled scores diverged: %+v vs %+v", a[0], b[0])
	}
}

// Sharded requests against the service cover the sweep exactly once.
func TestShardedRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(serverOptions{}))
	defer ts.Close()

	const base = "workload=Sync-1&policy=linux,wash&seed=1,2"
	full := runCells(t, ts, base)
	seen := make(map[string]bool)
	total := 0
	for idx := 0; idx < 2; idx++ {
		cells := runCells(t, ts, base+"&shard_count=2&shard_index="+string(rune('0'+idx)))
		for _, c := range cells {
			if seen[c.Key] {
				t.Errorf("cell %s served by two shards", c.Key)
			}
			seen[c.Key] = true
		}
		total += len(cells)
	}
	if total != len(full) {
		t.Errorf("shards cover %d cells, want %d", total, len(full))
	}
}

func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(newServer(serverOptions{}))
	defer ts.Close()
	// names, when set, must appear in the 400's body.
	for _, tc := range []struct{ name, query, names string }{
		{"no workload", "policy=linux", ""},
		{"unknown machine", "workload=Sync-1&machine=8B8S", ""},
		{"bad seed", "workload=Sync-1&seed=minusone", ""},
		{"unknown workload", "workload=no-such-benchmark:4", ""},
		{"unknown policy", "workload=Sync-1&policy=no-such-policy", ""},
		{"bad shard", "workload=Sync-1&shard_index=5&shard_count=2", ""},
		{"bad workers", "workload=Sync-1&workers=0", ""},
		{"repeated workers", "workload=Sync-1&workers=1&workers=2", "workers"},
		{"repeated shard_index", "workload=Sync-1&shard_index=0&shard_index=1&shard_count=2", "shard_index"},
		{"repeated shard_count", "workload=Sync-1&shard_index=0&shard_count=2&shard_count=2", "shard_count"},
		{"repeated classes", "workload=Sync-1&classes=0&classes=1", "classes"},
	} {
		resp, err := http.Get(ts.URL + "/run?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: /run?%s -> %s, want 400", tc.name, tc.query, resp.Status)
		}
		if tc.names != "" && !strings.Contains(string(body), tc.names) {
			t.Errorf("%s: 400 body %q does not name %s", tc.name, body, tc.names)
		}
	}
}

func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(newServer(serverOptions{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz -> %s", resp.Status)
	}
}

// With -max-concurrent 1, a second sweep arriving while one streams is
// shed with 429 + Retry-After instead of queueing, and capacity frees as
// soon as the stream drains.
func TestMaxConcurrentSheds(t *testing.T) {
	s := newServer(serverOptions{maxConcurrent: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var held sync.Once
	s.testHold = func() {
		// Only the first sweep holds; later requests run through.
		held.Do(func() { close(entered); <-release })
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/run?workload=Sync-1&policy=linux&seed=1")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		firstDone <- err
	}()
	<-entered // the first sweep now provably holds the only slot

	second, err := http.Get(ts.URL + "/run?workload=Sync-1&policy=linux&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("concurrent request -> %s, want 429", second.Status)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	// Capacity released: the same request now streams.
	if cells := runCells(t, ts, "workload=Sync-1&policy=linux&seed=1"); len(cells) != 1 {
		t.Fatalf("post-drain request returned %d cells, want 1", len(cells))
	}
	if s := getStats(t, ts); s.Rejected != 1 || s.Inflight != 0 {
		t.Errorf("stats rejected=%d inflight=%d, want 1 and 0", s.Rejected, s.Inflight)
	}
}

// With -cache-limit, the cell cache evicts LRU cells past the bound and
// reports it on /stats.
func TestCacheLimitEvicts(t *testing.T) {
	ts := httptest.NewServer(newServer(serverOptions{cacheLimit: 2}))
	defer ts.Close()
	if cells := runCells(t, ts, "workload=Sync-1&policy=linux,wash&seed=1,2"); len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	s := getStats(t, ts)
	if s.Cache.Limit != 2 {
		t.Errorf("stats report cache limit %d, want 2", s.Cache.Limit)
	}
	if s.Cache.Cells > 2 {
		t.Errorf("cache holds %d cells over its limit of 2", s.Cache.Cells)
	}
	if s.Cache.Evictions == 0 {
		t.Error("4 cells through a 2-cell cache evicted nothing")
	}
}

// Cells carry their spec's @class= label, and ?classes=1 appends the
// per-class grouping as a trailer after the cell stream.
func TestRunClassColumnsAndGrouping(t *testing.T) {
	ts := httptest.NewServer(newServer(serverOptions{}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/run?workload=interactive-burst,memory-churn&policy=linux,wash&seed=1&classes=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/run -> %s", resp.Status)
	}
	var cells []fleet.Cell
	var groups []classLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "geomean_h_antt") {
			var g classLine
			if err := json.Unmarshal(sc.Bytes(), &g); err != nil {
				t.Fatalf("bad class line %q: %v", sc.Text(), err)
			}
			groups = append(groups, g)
			continue
		}
		if len(groups) > 0 {
			t.Fatalf("cell line %q after the class trailer began", sc.Text())
		}
		var c fleet.Cell
		if err := json.Unmarshal(sc.Bytes(), &c); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		cells = append(cells, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4 (2 workloads x 2 policies)", len(cells))
	}
	wantClass := map[string]string{"interactive-burst": "interactive", "memory-churn": "memory"}
	for _, c := range cells {
		if c.Class != wantClass[c.Workload] {
			t.Errorf("cell %s has class %q, want %q", c.Workload, c.Class, wantClass[c.Workload])
		}
	}
	if len(groups) != 4 {
		t.Fatalf("got %d class groups, want 4 (2 classes x 2 policies)", len(groups))
	}
	byKey := make(map[string]classLine)
	for _, g := range groups {
		byKey[g.Class+"/"+g.Policy] = g
	}
	for _, c := range cells {
		g, ok := byKey[c.Class+"/"+c.Policy]
		if !ok {
			t.Errorf("no class group for cell %s/%s", c.Class, c.Policy)
			continue
		}
		// One cell per (class, policy) here, so the geomean is the cell.
		if g.Cells != 1 || g.HANTT != c.HANTT || g.HSTP != c.HSTP {
			t.Errorf("group %s/%s = %+v, want the single cell %+v", c.Class, c.Policy, g, c)
		}
	}
}

func TestSplitList(t *testing.T) {
	got := splitList([]string{"a, b", "", "c", " , d"})
	want := []string{"a", "b", "c", "d"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("splitList = %v, want %v", got, want)
	}
}

// The service resolves workloads by name on every request, so a spec
// that replays a local trace file is rejected with a message naming the
// offending term.
func TestTraceFileWorkloadsRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "arrivals.trace")
	if err := os.WriteFile(path, []byte("0\n5ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(serverOptions{}))
	defer ts.Close()
	spec := fmt.Sprintf("dedup:2*2@arrive=tracefile(%s)", path)
	resp, err := http.Get(ts.URL + "/run?workload=" + url.QueryEscape(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tracefile workload -> %s, want 400 (body %q)", resp.Status, body)
	}
	if !strings.Contains(string(body), "trace file") || !strings.Contains(string(body), "dedup") {
		t.Errorf("rejection does not name the trace-file term: %q", body)
	}
}
