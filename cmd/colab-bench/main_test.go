package main

import (
	"context"
	"strings"
	"testing"
)

func TestRunTables(t *testing.T) {
	var out, errb strings.Builder
	if err := run(context.Background(), []string{"-tables"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"Table 2", "Table 3", "Table 4"} {
		if !strings.Contains(s, want) {
			t.Errorf("output misses %q:\n%s", want, s)
		}
	}
}

func TestRunTriGear(t *testing.T) {
	if testing.Short() {
		t.Skip("tri-gear table is not -short")
	}
	var out, errb strings.Builder
	if err := run(context.Background(), []string{"-trigear"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"Tri-gear extension", "2B2M2S", "colab", "eas"} {
		if !strings.Contains(s, want) {
			t.Errorf("output misses %q:\n%s", want, s)
		}
	}
}

// Every selected job runs, in job order, whatever order the flags come in.
func TestRunSeveralSelections(t *testing.T) {
	var out, errb strings.Builder
	if err := run(context.Background(), []string{"-numa", "-tables"}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	tables, numa := strings.Index(s, "Table 4"), strings.Index(s, "NUMA migration-cost sweep")
	if tables < 0 || numa < 0 || tables > numa {
		t.Errorf("want tables 2-4 then the NUMA sweep, got:\n%s", s)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var out, errb strings.Builder
	if err := run(context.Background(), []string{"-fig", "99"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "nothing selected") {
		t.Errorf("want nothing-selected error, got %v", err)
	}
}

func TestRunDeltaCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errb strings.Builder
	if err := run(ctx, []string{"-delta"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("cancelled -delta must surface the cancellation, got %v", err)
	}
}
