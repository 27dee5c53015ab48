package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"colab/internal/metrics"
)

// JournalRecord is one NDJSON line of a checkpoint journal: a completed
// cell's canonical key and its scores. Scores are marshalled with
// encoding/json's shortest-round-trip float rendering, so a replayed cell
// is bit-identical to the computed one. The same shape travels on the
// fleet wire: a coordinator ships a failed shard's partial journal to the
// replacement worker as a list of records.
type JournalRecord struct {
	Key   string  `json:"key"`
	HANTT float64 `json:"h_antt"`
	HSTP  float64 `json:"h_stp"`
}

// Journal is the checkpoint store of a sweep: an append-only NDJSON file
// of completed cells keyed by CellKey. A batch run with a journal records
// every cell as it completes (each line is flushed and fsynced before the
// cell is reported done), and a restarted run over the same file replays
// completed cells instead of recomputing them — the replayed scores are
// bit-identical, so the resumed sweep's final output matches an
// uninterrupted run byte for byte.
//
// Because entries are keyed, the journal is oblivious to shard layout and
// worker count: any subset of a sweep's cells may be present, and a
// journal written by several sharded processes (one file per shard) can be
// replayed per shard or concatenated. A Journal is safe for concurrent use
// by one process; concurrent processes must use distinct files.
//
// NewJournal builds the file-less form: the same lookups over records
// held in memory (a fleet worker replays a shipped checkpoint through
// it), with Record keeping new cells in memory only.
type Journal struct {
	mu     sync.Mutex
	f      *os.File // nil for a file-less journal
	closed bool
	done   map[string]metrics.MixScore
}

// NewJournal returns a file-less journal holding recs: lookups replay
// them bit-identically, and Record adds cells in memory only.
func NewJournal(recs []JournalRecord) *Journal {
	done := make(map[string]metrics.MixScore, len(recs))
	for _, r := range recs {
		done[r.Key] = metrics.MixScore{HANTT: r.HANTT, HSTP: r.HSTP}
	}
	return &Journal{done: done}
}

// scanJournal walks the NDJSON journal bytes line by line, calling record
// for every complete entry (with the raw line preserved). It returns the
// byte length of a torn trailing fragment — the signature of a kill
// mid-append: the file ends without a newline in a half-written record —
// or an error when an interior line is malformed, which means the file is
// not a journal.
func scanJournal(path string, data []byte, record func(raw []byte, e JournalRecord)) (torn int, err error) {
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		var e JournalRecord
		if err := json.Unmarshal(trimmed, &e); err != nil || e.Key == "" {
			if i == len(lines)-1 {
				return len(line), nil
			}
			return 0, fmt.Errorf("experiment: journal %s line %d is not a cell record: %q", path, i+1, trimmed)
		}
		record(trimmed, e)
	}
	return 0, nil
}

// OpenJournal opens (creating if missing) the checkpoint journal at path
// and loads every completed cell. A truncated final line — the signature
// of a kill mid-write — is tolerated and dropped; a complete final record
// without its newline is kept and terminated; malformed interior lines
// mean the file is not a journal and error out.
func OpenJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("experiment: reading journal %s: %w", path, err)
	}
	done := make(map[string]metrics.MixScore)
	torn, err := scanJournal(path, data, func(_ []byte, e JournalRecord) {
		done[e.Key] = metrics.MixScore{HANTT: e.HANTT, HSTP: e.HSTP}
	})
	if err != nil {
		return nil, err
	}
	if torn > 0 {
		// The process died mid-append. Truncate the fragment away —
		// appending after it would weld two records onto one line — and
		// let the cell rerun.
		if err := os.Truncate(path, int64(len(data)-torn)); err != nil {
			return nil, fmt.Errorf("experiment: truncating torn journal tail in %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiment: opening journal %s: %w", path, err)
	}
	if kept := data[:len(data)-torn]; len(kept) > 0 && kept[len(kept)-1] != '\n' {
		// A complete last record lost its newline (power loss just before
		// it, or a journal another tool wrote): terminate it, or the next
		// Record would land on the same line and make the file unreadable.
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("experiment: terminating last record of journal %s: %w", path, err)
		}
	}
	return &Journal{f: f, done: done}, nil
}

// CompactJournal rewrites the checkpoint journal at path dropping
// duplicate and torn records: for every cell key the first complete record
// is kept verbatim (byte for byte — later records of a key are superseded
// no-ops, since Journal.Record never re-records a known key), a torn
// trailing fragment is dropped exactly as OpenJournal would drop it, and
// the surviving lines keep their order. The rewrite is atomic (temp file,
// fsync, rename), so a kill mid-compaction leaves either the old or the
// new journal, never a mix. It returns the number of records kept and the
// number of duplicate records dropped (a dropped torn tail is not
// counted: it was never a record).
//
// Journals accumulate duplicates across processes — concatenated shard
// journals, or a reassigned fleet shard whose replacement worker re-ran
// with a shipped seed — which compaction folds away; million-cell sweep
// journals shrink accordingly.
func CompactJournal(path string) (kept, dropped int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("experiment: reading journal %s: %w", path, err)
	}
	var out bytes.Buffer
	seen := make(map[string]bool)
	if _, err := scanJournal(path, data, func(raw []byte, e JournalRecord) {
		if seen[e.Key] {
			dropped++
			return
		}
		seen[e.Key] = true
		kept++
		out.Write(raw)
		out.WriteByte('\n')
	}); err != nil {
		return 0, 0, err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".compact-*")
	if err != nil {
		return 0, 0, fmt.Errorf("experiment: compacting journal %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds
	if _, err := tmp.Write(out.Bytes()); err == nil {
		err = tmp.Sync()
	}
	if err != nil {
		tmp.Close()
		return 0, 0, fmt.Errorf("experiment: compacting journal %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return 0, 0, fmt.Errorf("experiment: compacting journal %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, 0, fmt.Errorf("experiment: compacting journal %s: %w", path, err)
	}
	return kept, dropped, nil
}

// Lookup returns the replayed score of a completed cell.
func (j *Journal) Lookup(key CellKey) (metrics.MixScore, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.done[key.String()]
	return v, ok
}

// Len returns the number of completed cells on record.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends one completed cell, fsyncing before returning so a kill
// after Record never loses the cell. Re-recording a known key is a no-op:
// replayed and cache-served cells flow through Record freely. A closed
// journal refuses new cells rather than keep them undurably.
func (j *Journal) Record(key CellKey, score metrics.MixScore) error {
	ks := key.String()
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.done[ks]; ok {
		return nil
	}
	if j.closed {
		return fmt.Errorf("experiment: journal record: journal is closed")
	}
	if j.f == nil {
		j.done[ks] = score
		return nil
	}
	line, err := json.Marshal(JournalRecord{Key: ks, HANTT: score.HANTT, HSTP: score.HSTP})
	if err != nil {
		return fmt.Errorf("experiment: journal record: %w", err)
	}
	w := bufio.NewWriter(j.f)
	w.Write(line)
	w.WriteByte('\n')
	if err := w.Flush(); err != nil {
		return fmt.Errorf("experiment: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("experiment: journal sync: %w", err)
	}
	j.done[ks] = score
	return nil
}

// Close releases the journal file. The journal stays readable afterwards
// (lookups keep working); only appends stop.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}
