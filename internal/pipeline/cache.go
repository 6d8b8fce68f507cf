package pipeline

import (
	"context"
	"errors"
	"sync"

	"needle/internal/obs"
)

// Observability counters (no-ops until obs.Enable): stage-artifact cache
// behaviour across every Cache in the process, in aggregate and per stage
// (pipeline.cache.<stage>.hits / .misses).
var (
	obsCacheHits   = obs.GetCounter("pipeline.cache.hits")
	obsCacheMisses = obs.GetCounter("pipeline.cache.misses")

	obsStageCache = func() map[string][2]*obs.Counter {
		m := make(map[string][2]*obs.Counter, len(stages))
		for _, name := range StageNames() {
			m[name] = [2]*obs.Counter{
				obs.GetCounter("pipeline.cache." + name + ".hits"),
				obs.GetCounter("pipeline.cache." + name + ".misses"),
			}
		}
		return m
	}()
)

// Cache shares cacheable stage artifacts across pipeline runs. Artifacts
// are keyed by (workload, cumulative upstream-config fingerprint), so runs
// that differ only in downstream knobs — predictor history bits, CGRA
// parameters, selection bounds — reuse the expensive Inline/Profile/Select
// artifacts instead of recomputing them.
//
// A Cache is safe for concurrent use; concurrent runs that miss on the
// same key compute the artifact once (the laggards block and share the
// result). Stage errors are cached too, so a deterministic failure is
// reported identically on reuse — except context cancellation errors
// (context.Canceled, context.DeadlineExceeded), which describe the
// interrupted run rather than the artifact and are never memoized: a ^C'd
// stage does not poison its key for later runs. Nor is a computation that
// panics: the panic goes on up the computing run's stack, the runs waiting
// on it get an error, and the next run computes afresh. The zero value is
// not usable; call NewCache.
//
// Cache is the in-memory tier of the Store interface; NewDiskStore wraps
// one with a persistent content-addressed tier.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	stats   map[string]*CacheStats
}

type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

// CacheStats counts one stage's cache behaviour.
type CacheStats struct {
	Hits   int64
	Misses int64
	// DiskHits counts memory-tier misses that were served by a persistent
	// disk tier instead of recomputation (always 0 for a plain Cache).
	DiskHits int64
	// Evictions counts on-disk artifacts evicted under the disk tier's
	// size cap (always 0 for a plain Cache).
	Evictions int64
}

// NewCache returns an empty artifact cache.
func NewCache() *Cache {
	return &Cache{
		entries: make(map[string]*cacheEntry),
		stats:   make(map[string]*CacheStats),
	}
}

// Do implements Store: it serves st's artifact from memory, computing it
// once per key.
func (c *Cache) Do(st *Stage, _ *Artifacts, key string, compute func() (any, error)) (any, error, bool) {
	return c.do(st.Name, key, compute)
}

// do returns the cached artifact for key, computing it with f on first
// use. hit reports whether the artifact (or its error) already existed —
// a concurrent first computation counts as a hit for the waiters.
func (c *Cache) do(stage, key string, f func() (any, error)) (val any, err error, hit bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	st := c.stats[stage]
	if st == nil {
		st = &CacheStats{}
		c.stats[stage] = st
	}
	if ok {
		st.Hits++
	} else {
		st.Misses++
	}
	c.mu.Unlock()
	if sc, found := obsStageCache[stage]; found {
		if ok {
			sc[0].Add(1)
		} else {
			sc[1].Add(1)
		}
	}
	if ok {
		obsCacheHits.Add(1)
	} else {
		obsCacheMisses.Add(1)
	}
	e.once.Do(func() {
		// sync.Once counts a panicking f as done. Leave an error for the
		// runs waiting on this entry and drop it, so no later run inherits
		// a nil artifact; the panic itself goes on up the stack.
		returned := false
		defer func() {
			if !returned {
				e.err = errPanicked
				c.forget(key, e)
			}
		}()
		e.val, e.err = f()
		returned = true
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// Cancellation describes this run, not the artifact: drop the entry
		// so a later, uncancelled run recomputes instead of inheriting the
		// interruption forever.
		c.forget(key, e)
	}
	return e.val, e.err, ok
}

// errPanicked is what runs sharing a computation get when it panicked.
var errPanicked = errors.New("pipeline: the shared stage computation panicked")

// forget drops e from the cache, unless key already names a newer entry.
func (c *Cache) forget(key string, e *cacheEntry) {
	c.mu.Lock()
	if c.entries[key] == e {
		delete(c.entries, key)
	}
	c.mu.Unlock()
}

// Stats returns a copy of the per-stage hit/miss counts, keyed by stage
// name.
func (c *Cache) Stats() map[string]CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]CacheStats, len(c.stats))
	for k, v := range c.stats {
		out[k] = *v
	}
	return out
}

// Len returns the number of cached stage artifacts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
