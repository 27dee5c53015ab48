package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// FuzzStreamLine feeds arbitrary lines through the coordinator's
// decode-and-ingest step, twice at the same position so the duplicate
// path runs too. The step must never panic, and every rejection must name
// the worker and the shard. Independently, a Cell encoded and decoded
// through the stream-line envelope must come back with bit-identical
// floats.
func FuzzStreamLine(f *testing.F) {
	const shards = 2
	b, err := testSpec().Batch(0, shards)
	if err != nil {
		f.Fatal(err)
	}
	planned, err := b.Plan()
	if err != nil {
		f.Fatal(err)
	}
	first := planned[0]
	valid, _ := json.Marshal(Cell{
		Workload: first.Key.Workload, Machine: first.Key.Config, Policy: first.Key.Policy,
		Seed: first.Key.Seed, HANTT: 1.25, HSTP: 0.75, Key: first.CellKey.String(),
	})
	f.Add(valid, 0, 1.0/3.0, 2.0000000000000004)
	f.Add(valid, 1, 0.0, math.Copysign(0, -1))
	f.Add([]byte(`{"error":"boom"}`), 0, 1.0, 1.0)
	f.Add([]byte(`{"workload":"Sync-1","cell_key":"nope"}`), 0, 5e-324, math.MaxFloat64)
	f.Add([]byte(`not json`), 9, -1.0, 1e308)
	f.Add([]byte(`{"h_antt":"x"}`), -3, 1.0, 1.0)

	const worker = "http://worker.test:1"
	f.Fuzz(func(t *testing.T, line []byte, k int, hantt, hstp float64) {
		st := newRunState(planned, shards, func(int, Cell) {})
		shard := first.Shard
		n := len(st.seq[shard])
		k = ((k % (n + 1)) + n + 1) % (n + 1) // in the plan, or one past it
		for i := 0; i < 2; i++ {
			err := st.ingestLine(worker, shard, k, line)
			if err == nil {
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, worker) || !strings.Contains(msg, fmt.Sprintf("shard %d", shard)) {
				t.Fatalf("rejection does not name worker and shard: %v", err)
			}
		}

		if math.IsNaN(hantt) || math.IsInf(hantt, 0) || math.IsNaN(hstp) || math.IsInf(hstp, 0) {
			return // JSON has no spelling for these
		}
		in := Cell{Workload: "w", Class: "c", HANTT: hantt, HSTP: hstp, Key: "k"}
		wire, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out streamLine
		if err := json.Unmarshal(wire, &out); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.HANTT) != math.Float64bits(hantt) || math.Float64bits(out.HSTP) != math.Float64bits(hstp) {
			t.Fatalf("floats not bit-identical after the wire: %v vs %v", out.Cell, in)
		}
		if out.Cell != in {
			t.Fatalf("cell changed on the wire: %+v vs %+v", out.Cell, in)
		}
	})
}
