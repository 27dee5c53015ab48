package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRequests is the fixed query set whose 200 bodies are pinned byte
// for byte under testdata/. The requests run in this order against one
// server, so the cached flags of repeats are part of what is pinned.
var goldenRequests = []struct {
	name, query string
	form        bool // send the query as an application/x-www-form-urlencoded POST body
}{
	{"sweep", "workload=Sync-1&policy=linux,wash&seed=1,2", false},
	{"sweep-repeat", "workload=Sync-1&policy=linux,wash&seed=1,2", false},
	{"spelling", "workload=ferret:4%2Bbodytrack:8&policy=wash.labeler", false},
	{"respelled", "workload=+ferret:4+%2B+bodytrack:8+&policy=linux.selector%2Bwash.labeler%2Blinux.allocator", false},
	{"shard", "workload=Sync-1&policy=linux,wash&seed=1,2&shard_index=1&shard_count=2", false},
	{"classes", "workload=interactive-burst,memory-churn&policy=linux,wash&seed=1&classes=1", false},
	{"form-post", "workload=Sync-1&policy=linux,wash&seed=1,2", true},
}

// TestGoldenBodies diffs the /run bodies of the fixed query set against
// testdata. GOLDEN_WRITE=1 rewrites the files (intentional changes only).
func TestGoldenBodies(t *testing.T) {
	ts := httptest.NewServer(newWorker(0, 0))
	defer ts.Close()
	write := os.Getenv("GOLDEN_WRITE") != ""
	for _, g := range goldenRequests {
		var resp *http.Response
		var err error
		if g.form {
			resp, err = http.Post(ts.URL+"/run", "application/x-www-form-urlencoded", strings.NewReader(g.query))
		} else {
			resp, err = http.Get(ts.URL + "/run?" + g.query)
		}
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s (body %q)", g.name, resp.Status, body)
		}
		path := filepath.Join("testdata", g.name+".ndjson")
		if write {
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("%s: body differs from %s\n got: %s\nwant: %s", g.name, path, body, want)
		}
	}
}
