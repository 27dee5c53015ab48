package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// freePort reserves a loopback port for a mode under test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestLocalModeWritesCSV pins the in-process path: NDJSON on stdout, CSV
// at -o, exit 0.
func TestLocalModeWritesCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "local.csv")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-mode", "local", "-workload", "Sync-1", "-policy", "linux", "-seed", "1", "-o", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if lines := strings.Split(strings.TrimSpace(stdout.String()), "\n"); len(lines) != 1 {
		t.Errorf("stdout has %d NDJSON lines, want 1:\n%s", len(lines), stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Split(strings.TrimSpace(string(data)), "\n"); len(lines) != 2 {
		t.Errorf("csv has %d lines, want header + 1 cell:\n%s", len(lines), data)
	}
}

// TestFleetModeMatchesLocalMode is the binary-level guarantee the CI
// smoke job scripts against: a coordinator with two workers produces a
// CSV byte-identical to -mode local.
func TestFleetModeMatchesLocalMode(t *testing.T) {
	dir := t.TempDir()
	sweep := []string{"-workload", "Sync-1,Comp-1", "-policy", "linux,wash", "-seed", "1,2"}

	localCSV := filepath.Join(dir, "local.csv")
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), append([]string{"-mode", "local", "-o", localCSV}, sweep...), &stdout, &stderr); code != 0 {
		t.Fatalf("local run exit %d: %s", code, stderr.String())
	}

	coordAddr := freePort(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go run(ctx, []string{
			"-mode", "worker", "-addr", freePort(t),
			"-coordinator", "http://" + coordAddr,
		}, new(bytes.Buffer), new(bytes.Buffer))
	}
	fleetCSV := filepath.Join(dir, "fleet.csv")
	stdout.Reset()
	stderr.Reset()
	code := run(ctx, append([]string{
		"-mode", "coordinator", "-addr", coordAddr, "-min-workers", "2", "-o", fleetCSV,
	}, sweep...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("coordinator exit %d: %s", code, stderr.String())
	}
	want, err := os.ReadFile(localCSV)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(fleetCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet csv diverges from local csv:\nlocal:\n%s\nfleet:\n%s", want, got)
	}
	if lines := strings.Split(strings.TrimSpace(stdout.String()), "\n"); len(lines) != 8 {
		t.Errorf("coordinator streamed %d NDJSON lines, want 8", len(lines))
	}
}

// TestWorkerModeDrainsOnCancel pins graceful shutdown: cancelling the
// context (the SIGTERM path) exits 0 promptly.
func TestWorkerModeDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{
			"-mode", "worker", "-addr", freePort(t),
			"-coordinator", "http://127.0.0.1:1", "-drain-timeout", "2s",
		}, new(bytes.Buffer), new(bytes.Buffer))
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("worker exit %d after graceful shutdown, want 0", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit within the drain budget")
	}
}

// TestCompactFlag pins the journal-housekeeping mode.
func TestCompactFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	lines := `{"key":"a","h_antt":1,"h_stp":2}
{"key":"b","h_antt":3,"h_stp":4}
{"key":"a","h_antt":1,"h_stp":2}
{"key":"c","h_antt":5`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-compact", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "kept 2") || !strings.Contains(stdout.String(), "dropped 1") {
		t.Errorf("compact report %q, want kept 2 / dropped 1", stdout.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("compacted journal has %d lines, want 2:\n%s", n, data)
	}
}

// TestBadFlagsFailCleanly pins the error paths to non-zero exits with
// messages on stderr.
func TestBadFlagsFailCleanly(t *testing.T) {
	for _, tc := range [][]string{
		{"-mode", "nope"},
		{"-mode", "local"},  // no workloads
		{"-mode", "worker"}, // no coordinator
		{"-mode", "local", "-workload", "Sync-1", "-machine", "9B9S"},
		{"-mode", "local", "-workload", "Sync-1", "-seed", "x"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), tc, &stdout, &stderr); code == 0 {
			t.Errorf("args %v exited 0, want failure", tc)
		} else if stderr.Len() == 0 {
			t.Errorf("args %v failed silently", tc)
		}
	}
}
