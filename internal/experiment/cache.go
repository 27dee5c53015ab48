package experiment

import (
	"container/list"
	"context"
	"sync"

	"colab/internal/metrics"
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
// The cache is unbounded by default; SetLimit bounds it to a maximum
// number of cells with least-recently-used eviction (every hit, store and
// computed fill refreshes a cell's recency). In-flight computations are
// never evicted — only completed cells count against the limit.
type Cache struct {
	mu       sync.Mutex
	cells    map[string]*list.Element // -> *cacheEntry, also held in lru
	lru      *list.List               // front = most recently used
	limit    int
	inflight map[string]*inflightCell
	hits     uint64
	misses   uint64
	evicted  uint64
}

type cacheEntry struct {
	key   string
	score metrics.MixScore
}

type inflightCell struct {
	done  chan struct{}
	score metrics.MixScore
	err   error
}

// NewCache returns an empty, unbounded cell cache.
func NewCache() *Cache {
	return &Cache{
		cells:    make(map[string]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*inflightCell),
	}
}

// SetLimit bounds the cache to at most maxEntries cells, evicting the
// least recently used cells immediately if it already holds more;
// maxEntries <= 0 removes the bound. Safe to call at any time.
func (c *Cache) SetLimit(maxEntries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if maxEntries < 0 {
		maxEntries = 0
	}
	c.limit = maxEntries
	c.evictOverflow()
}

// evictOverflow drops least-recently-used cells until the limit holds.
// Callers hold c.mu.
func (c *Cache) evictOverflow() {
	if c.limit <= 0 {
		return
	}
	for c.lru.Len() > c.limit {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.cells, oldest.Value.(*cacheEntry).key)
		c.evicted++
	}
}

// insert stores (or refreshes) a scored cell and applies the LRU bound.
// Callers hold c.mu.
func (c *Cache) insert(ks string, score metrics.MixScore) {
	if el, ok := c.cells[ks]; ok {
		el.Value.(*cacheEntry).score = score
		c.lru.MoveToFront(el)
		return
	}
	c.cells[ks] = c.lru.PushFront(&cacheEntry{key: ks, score: score})
	c.evictOverflow()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Cells: len(c.cells), Hits: c.hits, Misses: c.misses, Evictions: c.evicted, Limit: c.limit}
}

// Do returns the cell's score, computing it via compute on a miss. The
// second result reports whether the score came from the cache (directly or
// by waiting on an identical in-flight computation) rather than from this
// caller's compute. Cancelling ctx abandons only this caller's wait;
// compute itself is expected to honour the same ctx.
func (c *Cache) Do(ctx context.Context, key CellKey, compute func() (metrics.MixScore, error)) (metrics.MixScore, bool, error) {
	ks := key.String()
	for {
		c.mu.Lock()
		if el, ok := c.cells[ks]; ok {
			c.hits++
			c.lru.MoveToFront(el)
			score := el.Value.(*cacheEntry).score
			c.mu.Unlock()
			return score, true, nil
		}
		if fl, ok := c.inflight[ks]; ok {
			c.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return metrics.MixScore{}, false, ctx.Err()
			}
			if fl.err == nil {
				// The leader stored the cell. Under a tight LRU bound it may
				// already have been evicted again, so return the in-flight
				// result directly — still a hit, never a recompute.
				c.mu.Lock()
				c.hits++
				c.insert(ks, fl.score)
				c.mu.Unlock()
				return fl.score, true, nil
			}
			if err := ctx.Err(); err != nil {
				return metrics.MixScore{}, false, err
			}
			// The leader failed — likely its own request was cancelled.
			// Loop and try to become the leader ourselves.
			continue
		}
		fl := &inflightCell{done: make(chan struct{})}
		c.inflight[ks] = fl
		c.misses++
		c.mu.Unlock()
		score, err := compute()
		c.mu.Lock()
		delete(c.inflight, ks)
		if err == nil {
			c.insert(ks, score)
		}
		c.mu.Unlock()
		fl.score, fl.err = score, err
		close(fl.done)
		return score, false, err
	}
}
