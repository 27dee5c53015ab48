package experiment

import (
	"context"
	"sync"
)

// memo is a concurrency-safe memo with single-flight computation. It
// keeps Cache.Do's contract: concurrent callers of one key share one
// compute, and a leader that fails (its context cancelled, say) stores
// nothing and lets a waiter compute instead, so one aborted caller never
// poisons another. Unlike Cache it has no LRU bound and counts only
// misses and waits; entries stay until forget. The zero value is ready.
type memo[K comparable, V any] struct {
	mu       sync.Mutex
	done     map[K]V
	inflight map[K]*flight[V]
	// misses counts computations started, waits the callers that waited
	// for another caller's computation.
	misses, waits int
}

type flight[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns key's value, computing it via compute when no caller holds
// or is computing it. Cancelling ctx abandons only this caller's wait;
// compute itself is expected to honour the same ctx.
func (m *memo[K, V]) Do(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	var zero V
	for {
		m.mu.Lock()
		if v, ok := m.done[key]; ok {
			m.mu.Unlock()
			return v, nil
		}
		if fl, ok := m.inflight[key]; ok {
			m.waits++
			m.mu.Unlock()
			select {
			case <-fl.done:
			case <-ctx.Done():
				return zero, ctx.Err()
			}
			if fl.err == nil {
				return fl.v, nil
			}
			if err := ctx.Err(); err != nil {
				return zero, err
			}
			// The leader failed: loop and try to lead.
			continue
		}
		if m.inflight == nil {
			m.done = make(map[K]V)
			m.inflight = make(map[K]*flight[V])
		}
		fl := &flight[V]{done: make(chan struct{})}
		m.inflight[key] = fl
		m.misses++
		m.mu.Unlock()
		fl.v, fl.err = compute()
		m.mu.Lock()
		delete(m.inflight, key)
		if fl.err == nil {
			m.done[key] = fl.v
		}
		m.mu.Unlock()
		close(fl.done)
		return fl.v, fl.err
	}
}

// forget drops key's stored value.
func (m *memo[K, V]) forget(key K) {
	m.mu.Lock()
	delete(m.done, key)
	m.mu.Unlock()
}
