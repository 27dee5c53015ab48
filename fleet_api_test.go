package colab_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	colab "colab"
)

// startFleet spins up a coordinator and n worker daemons on loopback and
// waits until all have registered.
func startFleet(t *testing.T, n int) *colab.Fleet {
	t.Helper()
	f := colab.NewFleet(colab.FleetOptions{})
	cts := httptest.NewServer(f)
	t.Cleanup(cts.Close)
	for i := 0; i < n; i++ {
		w := colab.NewFleetWorker(nil)
		wts := httptest.NewServer(w)
		t.Cleanup(wts.Close)
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		go colab.RegisterFleetWorker(ctx, nil, cts.URL, wts.URL, 50*time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.WaitWorkers(ctx, n); err != nil {
		t.Fatalf("workers never registered: %v", err)
	}
	return f
}

// TestFleetRunMatchesLocalRun is the public fleet guarantee: the same
// session run through WithFleet on two workers produces byte-identical
// CSV to the unsharded in-process run, and WithObserver streams the
// cells in the same order.
func TestFleetRunMatchesLocalRun(t *testing.T) {
	ref := runCSV(t, goldenSubset())
	f := startFleet(t, 2)
	var (
		mu       sync.Mutex
		streamed []colab.ExperimentResult
	)
	exp := goldenSubset(
		colab.WithFleet(f),
		colab.WithObserver(func(r colab.ExperimentResult) {
			mu.Lock()
			streamed = append(streamed, r)
			mu.Unlock()
		}),
	)
	got := runCSV(t, exp)
	if got != ref {
		t.Fatalf("fleet run diverges from local run:\nlocal:\n%s\nfleet:\n%s", ref, got)
	}
	if len(streamed) != 12 {
		t.Fatalf("observer streamed %d cells, want 12", len(streamed))
	}
	res := &colab.ExperimentResults{Cells: streamed}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != ref {
		t.Fatalf("observer stream diverges from local run:\nlocal:\n%s\nstream:\n%s", ref, buf.String())
	}
}

// TestFleetRejectsLocalOnlyOptions pins the error surface: options that
// cannot travel the fleet wire fail fast with a message naming both
// options.
func TestFleetRejectsLocalOnlyOptions(t *testing.T) {
	f := colab.NewFleet(colab.FleetOptions{})
	for _, tc := range []struct {
		name string
		opt  colab.ExperimentOption
		want string
	}{
		{"tracer", colab.WithTracer(func(colab.ExperimentTrace) {}), "WithTracer"},
		{"model", colab.WithSpeedupModel(&colab.SpeedupModel{}), "WithSpeedupModel"},
		{"checkpoint", colab.WithCheckpoint("x.ndjson"), "WithCheckpoint"},
		{"cache", colab.WithCellCache(colab.NewCellCache()), "WithCellCache"},
		{"shard", colab.WithShard(0, 2), "WithShard"},
	} {
		_, err := goldenSubset(colab.WithFleet(f), tc.opt).Run(context.Background())
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "WithFleet") {
			t.Errorf("%s + fleet: error %v, want one naming %s and WithFleet", tc.name, err, tc.want)
		}
	}
	// Unnamed machine shapes have no wire form.
	_, err := colab.NewExperiment(
		colab.WithWorkloads("Sync-1"),
		colab.WithMachine(colab.NewConfig(3, 5, true)),
		colab.WithFleet(f),
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "named shape") {
		t.Errorf("unnamed machine + fleet: error %v, want a named-shape error", err)
	}
}
