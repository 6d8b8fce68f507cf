package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"needle/internal/pipeline"
	"needle/internal/pm"
)

// span is one timed interval of the traced run: a benchmark op, a store
// lookup (Store.Do), or a stage computation inside a lookup. Parent is the
// enclosing span's ID (-1 at the root); spans of one op share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its ID.
func (t *tracer) open(name string, parent, op int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Op: op})
	return id
}

// close ends span id and returns its duration.
func (t *tracer) close(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// selfTimes returns each span name's total self time: its duration minus
// the time its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// write dumps every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// stageTimes accumulates one stage's store behaviour seen from outside.
type stageTimes struct {
	compute, memHit, diskHit    time.Duration
	computes, memHits, diskHits int
}

// opState is an op in flight, registered under its program key so store
// lookups made on its behalf can be attributed to it.
type opState struct {
	id, span int
	sent     time.Time
	admit    time.Duration // request sent → first Store.Do; -1 until seen
	doTime   time.Duration // total time inside Store.Do
}

// timingStore wraps a pipeline.Store and times every lookup from outside:
// Do spans split into compute (a miss), memory hits and disk hits, keyed by
// Stage.Name. It returns exactly what the wrapped store returns, and Stats
// is the wrapped store's, so the pipeline cannot tell it is there.
type timingStore struct {
	mu     sync.Mutex
	inner  pipeline.Store
	disk   *pipeline.DiskStore // inner, when it has a disk tier
	tr     *tracer
	stages map[string]*stageTimes
	ops    map[string]*opState
	admits []time.Duration        // per finished op: request sent → first Do
	ams    map[*pm.Manager]uint64 // analysis managers seen → misses at first sight
	// amMisses sums the misses of the managers of inner stores replaced
	// since reset; their managers are dropped from ams so that the old
	// store's artifacts can be freed.
	amMisses uint64
	// retired sums the lookups of inner stores replaced since reset; base
	// is the current inner store's stats at reset.
	retired, base map[string]pipeline.CacheStats
}

func newTimingStore(inner pipeline.Store) *timingStore {
	ts := &timingStore{}
	ts.setInner(inner)
	ts.reset()
	return ts
}

// setInner points the wrapper at another store (the disk sweep opens one
// per pass, serve-nir-cold one per round) and keeps the timings gathered so
// far.
func (ts *timingStore) setInner(inner pipeline.Store) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.inner != nil && ts.retired != nil {
		addStats(ts.retired, ts.inner.Stats(), ts.base)
		ts.base = nil
		ts.amMisses += ts.managerMisses()
		ts.ams = make(map[*pm.Manager]uint64)
	}
	ts.inner = inner
	ts.disk, _ = inner.(*pipeline.DiskStore)
}

// addStats adds cur minus base to dst, stage by stage.
func addStats(dst, cur, base map[string]pipeline.CacheStats) {
	for st, c := range cur {
		b, d := base[st], dst[st]
		d.Hits += c.Hits - b.Hits
		d.Misses += c.Misses - b.Misses
		d.DiskHits += c.DiskHits - b.DiskHits
		dst[st] = d
	}
}

// lookups returns the wrapped stores' Stats since reset, summed over every
// store the wrapper has pointed at.
func (ts *timingStore) lookups() map[string]pipeline.CacheStats {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make(map[string]pipeline.CacheStats)
	addStats(out, ts.retired, nil)
	addStats(out, ts.inner.Stats(), ts.base)
	return out
}

// reset drops every timing and span gathered so far, so set-up lookups do
// not count.
func (ts *timingStore) reset() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.tr = newTracer()
	ts.stages = make(map[string]*stageTimes)
	ts.ops = make(map[string]*opState)
	ts.admits = nil
	ts.ams = make(map[*pm.Manager]uint64)
	ts.amMisses = 0
	ts.retired = make(map[string]pipeline.CacheStats)
	ts.base = ts.inner.Stats()
}

func (ts *timingStore) Stats() map[string]pipeline.CacheStats {
	ts.mu.Lock()
	inner := ts.inner
	ts.mu.Unlock()
	return inner.Stats()
}

// begin registers op as in flight for the program key and opens its span.
func (ts *timingStore) begin(key string, op int, name string) *opState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	o := &opState{id: op, span: ts.tr.open(name, -1, op), sent: time.Now(), admit: -1}
	ts.ops[key] = o
	return o
}

// end closes the op's span and forgets it.
func (ts *timingStore) end(key string, o *opState) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.ops[key] == o {
		delete(ts.ops, key)
	}
	if o.admit >= 0 {
		ts.admits = append(ts.admits, o.admit)
	}
	ts.tr.close(o.span)
}

func (ts *timingStore) Do(st *pipeline.Stage, a *pipeline.Artifacts, key string, compute func() (any, error)) (any, error, bool) {
	ts.mu.Lock()
	inner, disk, tr := ts.inner, ts.disk, ts.tr
	o := ts.ops[a.Program.Key()]
	ts.mu.Unlock()
	var diskBefore int64
	if disk != nil {
		diskBefore = disk.Stats()[st.Name].DiskHits
	}
	opID, parent := -1, -1
	if o != nil {
		opID, parent = o.id, o.span
	}

	start := time.Now()
	doSpan := tr.open("do: "+st.Name, parent, opID)
	computed := false
	var computeTime time.Duration
	val, err, hit := inner.Do(st, a, key, func() (any, error) {
		computed = true
		id := tr.open("compute: "+st.Name, doSpan, opID)
		defer func() { computeTime = tr.close(id) }()
		return compute()
	})
	total := tr.close(doSpan)

	diskHit := disk != nil && !computed && disk.Stats()[st.Name].DiskHits > diskBefore
	ts.mu.Lock()
	defer ts.mu.Unlock()
	s := ts.stages[st.Name]
	if s == nil {
		s = &stageTimes{}
		ts.stages[st.Name] = s
	}
	switch {
	case computed:
		s.compute += computeTime
		s.computes++
	case diskHit:
		s.diskHit += total
		s.diskHits++
	default:
		s.memHit += total
		s.memHits++
	}
	if o != nil {
		if o.admit < 0 {
			o.admit = start.Sub(o.sent)
		}
		o.doTime += total
	}
	if in, ok := val.(*pipeline.InlineArtifact); ok && err == nil {
		if _, seen := ts.ams[in.AM]; !seen {
			base := in.AM.Stats().Misses
			if computed {
				base = 0
			}
			ts.ams[in.AM] = base
		}
	}
	return val, err, hit
}

// pmMisses returns the analysis-manager cache misses incurred since each
// manager was first seen (from creation, for managers the lookups built).
func (ts *timingStore) pmMisses() uint64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.amMisses + ts.managerMisses()
}

// managerMisses sums the misses of the managers in ams since first sight;
// the caller holds ts.mu.
func (ts *timingStore) managerMisses() uint64 {
	var n uint64
	for am, base := range ts.ams {
		n += am.Stats().Misses - base
	}
	return n
}
