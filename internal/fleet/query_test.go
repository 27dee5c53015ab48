package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"colab/internal/experiment"
)

func TestSplitList(t *testing.T) {
	got := splitList([]string{"a, b", "", "c", " , d"})
	want := []string{"a", "b", "c", "d"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("splitList = %v, want %v", got, want)
	}
}

// /stats serves one counter set for shards and queries alike, under the
// keys colab-serve's clients read.
func TestWorkerStatsKeys(t *testing.T) {
	cache := experiment.NewCache()
	cache.SetLimit(2)
	w := NewWorker(cache)
	ts := httptest.NewServer(w)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/run?workload=Sync-1&policy=linux,wash&seed=1,2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"requests", "cells_served", "rejected", "inflight", "journal_seeded", "cache"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("/stats has no %q: %v", key, stats)
		}
	}
	cs, _ := stats["cache"].(map[string]any)
	for _, key := range []string{"hits", "limit", "evictions"} {
		if _, ok := cs[key]; !ok {
			t.Errorf("/stats cache has no %q: %v", key, cs)
		}
	}
	if stats["requests"] != 1.0 || stats["cells_served"] != 4.0 || stats["inflight"] != 0.0 || cs["limit"] != 2.0 || cs["evictions"] != 2.0 {
		t.Errorf("/stats = %v, want 1 request, 4 cells, none in flight, limit 2 and 2 evictions", stats)
	}
}
