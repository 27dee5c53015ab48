package experiment

import (
	"container/list"
	"context"
	"sync"

	"colab/internal/metrics"
	"colab/internal/sim"
)

// CacheStats is a point-in-time snapshot of a cell cache's counters.
type CacheStats struct {
	// Cells is the number of scored cells held.
	Cells int `json:"cells"`
	// Hits counts lookups answered from the cache, including lookups that
	// waited for an identical in-flight computation instead of starting
	// their own.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to compute their cell.
	Misses uint64 `json:"misses"`
	// Evictions counts cells dropped by the LRU bound (0 while the cache
	// is unbounded).
	Evictions uint64 `json:"evictions"`
	// Limit is the configured maximum number of cells (0 = unbounded).
	Limit int `json:"limit"`
}

// Cache is a concurrency-safe, content-addressed store of scored cells
// keyed by CellKey: the long-lived layer behind colab-serve and the fleet
// workers that lets repeated and overlapping requests share work.
// Identical in-flight computations are deduplicated — when two requests
// race on one cell, the second waits for the first's result rather than
// recomputing — and a leader failing (its request cancelled, say) promotes
// a waiter to compute, so one aborted request never poisons another.
//
// Beside its cells the cache memoises, by BaselineKey, the big-only-alone
// turnarounds the cells are scored against, so a cell missing from the
// cache reuses every baseline an earlier cell, batch or request already
// ran. Baselines are counted apart from the cells: Stats reports cells
// only.
//
// The cache is unbounded by default; SetLimit bounds it to a maximum
// number of cells with least-recently-used eviction (every hit, store and
// computed fill refreshes a cell's recency), and bounds the baselines
// separately to the same number. In-flight computations are never evicted
// — only completed cells count against the limit.
type Cache struct {
	cells     store[string, metrics.MixScore]
	baselines store[string, sim.Time]
}

// NewCache returns an empty, unbounded cell cache.
func NewCache() *Cache { return &Cache{} }

// SetLimit bounds the cache to at most maxEntries cells, and its baselines
// to at most maxEntries baselines, evicting the least recently used
// entries immediately if it already holds more; maxEntries <= 0 removes
// both bounds. Safe to call at any time.
func (c *Cache) SetLimit(maxEntries int) {
	c.cells.setLimit(maxEntries)
	c.baselines.setLimit(maxEntries)
}

// Stats snapshots the cell counters; baselines are not counted.
func (c *Cache) Stats() CacheStats {
	s := &c.cells
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{Cells: len(s.items), Hits: s.hits, Misses: s.misses, Evictions: s.evictions, Limit: s.limit}
}

// Do returns the cell's score, computing it via compute on a miss. The
// second result reports whether the score came from the cache (directly or
// by waiting on an identical in-flight computation) rather than from this
// caller's compute. Cancelling ctx abandons only this caller's wait;
// compute itself is expected to honour the same ctx.
func (c *Cache) Do(ctx context.Context, key CellKey, compute func() (metrics.MixScore, error)) (metrics.MixScore, bool, error) {
	return c.cells.Do(ctx, key.String(), compute)
}

// store is the one single-flight memo of the sweep engine: the cell
// Cache's cells and baselines and Batch.Run's closed builds are each an
// instance.
// Concurrent callers of one key share one compute; a leader that fails
// (its context cancelled, say) stores nothing and hands the key to a
// waiter, so one aborted caller never poisons another. An optional LRU
// bound (setLimit) evicts only completed entries, never in-flight work;
// forget drops an entry. The zero value is ready and unbounded.
type store[K comparable, V any] struct {
	mu       sync.Mutex
	items    map[K]*list.Element // -> *storeEntry[K, V], also held in lru
	lru      list.List           // front = most recently used
	limit    int
	inflight map[K]*flight[V]
	// hits counts callers answered with a stored or in-flight value (a
	// waiter only once it gets one), misses the computes started and
	// evictions the entries the LRU bound dropped.
	hits, misses, evictions uint64
}

type storeEntry[K comparable, V any] struct {
	key K
	v   V
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns key's value, computing it via compute when no caller holds
// or is computing it. The second result reports whether the value came
// from the store (directly or by waiting on another caller's compute).
// Cancelling ctx abandons only this caller's wait; compute itself is
// expected to honour the same ctx.
func (s *store[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, bool, error) {
	var zero V
	for {
		s.mu.Lock()
		if el, ok := s.items[key]; ok {
			s.hits++
			s.lru.MoveToFront(el)
			v := el.Value.(*storeEntry[K, V]).v
			s.mu.Unlock()
			return v, true, nil
		}
		if fl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return zero, false, ctx.Err()
			}
			if fl.err == nil {
				// The leader stored the value. Under a tight LRU bound it may
				// already have been evicted again, so return the in-flight
				// result directly — still a hit, never a recompute.
				s.mu.Lock()
				s.hits++
				s.insert(key, fl.v)
				s.mu.Unlock()
				return fl.v, true, nil
			}
			if err := ctx.Err(); err != nil {
				return zero, false, err
			}
			// The leader failed — likely its own caller was cancelled.
			// Loop and try to become the leader ourselves.
			continue
		}
		if s.inflight == nil {
			s.items = make(map[K]*list.Element)
			s.inflight = make(map[K]*flight[V])
		}
		fl := &flight[V]{done: make(chan struct{})}
		s.inflight[key] = fl
		s.misses++
		s.mu.Unlock()
		v, err := compute()
		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			s.insert(key, v)
		}
		s.mu.Unlock()
		fl.v, fl.err = v, err
		close(fl.done)
		return v, false, err
	}
}

// insert stores (or refreshes) key's value and applies the LRU bound.
// Callers hold s.mu.
func (s *store[K, V]) insert(key K, v V) {
	if el, ok := s.items[key]; ok {
		el.Value.(*storeEntry[K, V]).v = v
		s.lru.MoveToFront(el)
		return
	}
	s.items[key] = s.lru.PushFront(&storeEntry[K, V]{key: key, v: v})
	s.evictOverflow()
}

// setLimit bounds the store to at most maxEntries completed entries,
// evicting the least recently used at once; maxEntries <= 0 removes the
// bound.
func (s *store[K, V]) setLimit(maxEntries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = max(maxEntries, 0)
	s.evictOverflow()
}

// evictOverflow drops least-recently-used entries until the limit holds.
// Callers hold s.mu.
func (s *store[K, V]) evictOverflow() {
	if s.limit <= 0 {
		return
	}
	for s.lru.Len() > s.limit {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.items, oldest.Value.(*storeEntry[K, V]).key)
		s.evictions++
	}
}

// forget drops key's stored value; the next Do of key computes it again.
func (s *store[K, V]) forget(key K) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.lru.Remove(el)
		delete(s.items, key)
	}
}
