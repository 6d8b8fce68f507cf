package pipeline

import (
	"context"
	"errors"
	"sync"

	"needle/internal/obs"
)

// Observability counters (no-ops until obs.Enable): stage-artifact cache
// behaviour across every Cache in the process, in aggregate and per stage
// (pipeline.cache.<stage>.hits / .misses / .evictions).
var (
	obsCacheHits   = obs.GetCounter("pipeline.cache.hits")
	obsCacheMisses = obs.GetCounter("pipeline.cache.misses")

	obsStageCache = func() map[string]stageCounters {
		m := make(map[string]stageCounters, len(stages))
		for _, name := range StageNames() {
			m[name] = stageCounters{
				hits:      obs.GetCounter("pipeline.cache." + name + ".hits"),
				misses:    obs.GetCounter("pipeline.cache." + name + ".misses"),
				evictions: obs.GetCounter("pipeline.cache." + name + ".evictions"),
			}
		}
		return m
	}()
)

type stageCounters struct{ hits, misses, evictions *obs.Counter }

// CacheBudget is the memory tier's byte budget: the sum of the resident-size
// estimates (size.go) of the completed artifacts a Cache keeps. A default
// 29-workload sweep keeps about 13 MiB, so the sweep and every table over it
// reuse all of their artifacts.
const CacheBudget = 32 << 20

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
// A Cache holds at most CacheBudget bytes of completed artifacts, by their
// resident-size estimates. Completing an entry past the budget evicts the
// least recently used completed entries until the rest fits; an entry
// larger than the whole budget goes back to its run without being kept.
// Entries still being computed are never evicted. An evicted artifact is
// recomputed by the next run that needs it.
//
// Cache is the in-memory tier of the Store interface; NewDiskStore wraps
// one with a persistent content-addressed tier.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64 // sum of the sizes of the entries on the LRU ring
	entries map[string]*cacheEntry
	lru     cacheEntry // ring sentinel: lru.next is the most recently used
	stats   map[string]*CacheStats
}

// cacheEntry is one key's artifact. Once its computation completes it is
// linked into the Cache's LRU ring (prev/next non-nil) until it is evicted
// or forgotten.
type cacheEntry struct {
	once sync.Once
	val  any
	err  error

	key, stage string
	size       int64
	prev, next *cacheEntry
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
	// MemEvictions counts artifacts the memory tier dropped to stay within
	// CacheBudget, including those too large to keep at all.
	MemEvictions int64
}

// NewCache returns an empty artifact cache with the CacheBudget byte budget.
func NewCache() *Cache { return newCache(CacheBudget) }

func newCache(budget int64) *Cache {
	c := &Cache{
		budget:  budget,
		entries: make(map[string]*cacheEntry),
		stats:   make(map[string]*CacheStats),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
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
	st := c.stats[stage]
	if st == nil {
		st = &CacheStats{}
		c.stats[stage] = st
	}
	e, ok := c.entries[key]
	if ok {
		st.Hits++
		if e.next != nil { // completed: refresh its LRU position
			c.unlink(e)
			c.pushFront(e)
		}
	} else {
		st.Misses++
		e = &cacheEntry{key: key, stage: stage}
		c.entries[key] = e
	}
	c.mu.Unlock()
	if sc, found := obsStageCache[stage]; found {
		if ok {
			sc.hits.Add(1)
		} else {
			sc.misses.Add(1)
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
				c.forget(e)
			}
		}()
		e.val, e.err = f()
		returned = true
		c.complete(e)
	})
	return e.val, e.err, ok
}

// isCancellation reports whether err describes an interrupted run rather
// than the artifact.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// complete records a finished computation: it sizes e, links it at the
// most-recent end of the LRU ring, and evicts from the cold end until the
// ring fits the budget; an entry larger than the whole budget is dropped at
// once. A cancellation is dropped too, uncounted, so a later, uncancelled
// run recomputes rather than inheriting the interruption.
func (c *Cache) complete(e *cacheEntry) {
	if e.err != nil && isCancellation(e.err) {
		c.forget(e)
		return
	}
	size := residentBytes(e.key, e.val, e.err)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		c.evict(e)
		return
	}
	e.size = size
	c.bytes += size
	c.pushFront(e)
	for c.bytes > c.budget {
		c.evict(c.lru.prev)
	}
}

// evict drops e to keep the cache within its budget and counts it. Callers
// hold c.mu.
func (c *Cache) evict(e *cacheEntry) {
	c.drop(e)
	c.stats[e.stage].MemEvictions++
	if sc, found := obsStageCache[e.stage]; found {
		sc.evictions.Add(1)
	}
}

// errPanicked is what runs sharing a computation get when it panicked.
var errPanicked = errors.New("pipeline: the shared stage computation panicked")

// forget drops e from the cache, unless its key already names a newer
// entry.
func (c *Cache) forget(e *cacheEntry) {
	c.mu.Lock()
	if c.entries[e.key] == e {
		c.drop(e)
	}
	c.mu.Unlock()
}

// drop removes e, the entry its key names, from the map and the LRU ring.
// Callers hold c.mu.
func (c *Cache) drop(e *cacheEntry) {
	delete(c.entries, e.key)
	if e.next != nil {
		c.unlink(e)
		c.bytes -= e.size
	}
}

// pushFront links e at the most-recent end of the LRU ring. Callers hold
// c.mu.
func (c *Cache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e off the LRU ring. Callers hold c.mu.
func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// Stats returns a copy of the per-stage cache counts, keyed by stage name.
func (c *Cache) Stats() map[string]CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]CacheStats, len(c.stats))
	for k, v := range c.stats {
		out[k] = *v
	}
	return out
}

// Len returns the number of cached stage artifacts, in-flight ones
// included.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
