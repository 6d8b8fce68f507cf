// Package obs is the pipeline's observability layer: hierarchical wall-clock
// spans and named counters recorded into a registry, with exporters for the
// Chrome trace-event format (export.go) consumed by Perfetto and
// chrome://tracing, and a plain-text metrics dump.
//
// The registry is a true no-op until enabled: Start returns a nil *Span whose
// methods are all nil-safe, and Counter.Add is a single atomic load and
// branch. Instrumented packages therefore hold package-level *Counter values
// and create spans unconditionally; a run that never calls Enable pays
// effectively nothing (the sweep benchmark gate pins this down).
//
// Spans form a hierarchy two ways: explicitly via (*Span).Child, which also
// inherits the parent's track, and implicitly in the trace rendering, where
// events on the same track nest by time. Tracks map to Chrome trace "thread"
// lanes; the parallel sweep gives each worker its own track so the exported
// timeline shows per-worker utilization directly.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanData is one finished span as recorded by the registry.
type SpanData struct {
	Name  string
	Track int
	Start time.Duration // offset since the registry was enabled
	Dur   time.Duration
	Args  map[string]any
}

// Counter is a named monotonic counter. Add is atomic and safe for
// concurrent use; when the owning registry is disabled it is a no-op, so
// counters only ever reflect observed runs.
type Counter struct {
	r    *Registry
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n when the registry is enabled.
func (c *Counter) Add(n int64) {
	if c == nil || !c.r.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry collects spans and counters. The zero value is usable and starts
// disabled; most code uses the process-wide Default registry through the
// package-level functions.
type Registry struct {
	enabled atomic.Bool

	mu     sync.Mutex
	epoch  time.Time
	spans  []SpanData
	tracks map[int]string

	cmu      sync.Mutex
	counters map[string]*Counter
}

var def Registry

// Default returns the process-wide registry the package-level functions
// operate on.
func Default() *Registry { return &def }

// Enable turns recording on. The first Enable (or the first after a Reset)
// fixes the trace epoch that span timestamps are relative to.
func (r *Registry) Enable() {
	r.mu.Lock()
	if r.epoch.IsZero() {
		r.epoch = time.Now()
	}
	r.mu.Unlock()
	r.enabled.Store(true)
}

// Disable turns recording off. Recorded spans and counter values are kept
// until Reset, so exporters can run after Disable.
func (r *Registry) Disable() { r.enabled.Store(false) }

// Enabled reports whether the registry is recording.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Reset drops all recorded spans, zeroes every counter, and clears the trace
// epoch. Registered counters keep their identity (package-level *Counter
// values stay valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	r.spans = nil
	r.tracks = nil
	r.epoch = time.Time{}
	r.mu.Unlock()
	r.cmu.Lock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	r.cmu.Unlock()
}

// GetCounter returns the counter registered under name, creating it on first
// use. The same name always yields the same *Counter.
func (r *Registry) GetCounter(name string) *Counter {
	r.cmu.Lock()
	defer r.cmu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{r: r, name: name}
		r.counters[name] = c
	}
	return c
}

// Start begins a root span on track 0. It returns nil when the registry is
// disabled; every *Span method is nil-safe, so callers never check.
func (r *Registry) Start(name string) *Span { return r.start(name, 0) }

// StartOnTrack begins a root span on the given track and names the track's
// lane in the exported timeline after the span.
func (r *Registry) StartOnTrack(name string, track int) *Span {
	s := r.start(name, track)
	if s != nil {
		r.noteTrack(track, name)
	}
	return s
}

// noteTrack names a track's lane after the first span started on it.
func (r *Registry) noteTrack(track int, name string) {
	r.mu.Lock()
	if r.tracks == nil {
		r.tracks = make(map[int]string)
	}
	if _, ok := r.tracks[track]; !ok {
		r.tracks[track] = name
	}
	r.mu.Unlock()
}

func (r *Registry) start(name string, track int) *Span {
	if r == nil || !r.enabled.Load() {
		return nil
	}
	return &Span{r: r, name: name, track: track, start: time.Now()}
}

// Span is one in-flight timed operation. Spans are created by Start/Child,
// optionally annotated with SetArg, and recorded by End. A Span must not be
// shared across goroutines; give concurrent work its own child spans.
type Span struct {
	r     *Registry
	name  string
	track int
	start time.Time
	args  map[string]any
	ended bool
}

// Child begins a span nested under s, inheriting its track. On a nil parent
// it begins a root span on the Default registry, so instrumented layers that
// may run without an enclosing span (e.g. a bare sim.Capture) still record.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return Default().Start(name)
	}
	return s.r.start(name, s.track)
}

// ChildOnTrack begins a span nested under s on an explicit track, naming the
// track's lane after it (first span wins, as with StartOnTrack). It keeps a
// multi-lane hierarchy — a sweep root with one lane per worker — inside
// whatever registry s records to, so a request-scoped sweep exports per-worker
// utilization exactly like a process-wide one. On a nil parent it falls back
// to StartOnTrack on the Default registry.
func (s *Span) ChildOnTrack(name string, track int) *Span {
	if s == nil {
		return Default().StartOnTrack(name, track)
	}
	c := s.r.start(name, track)
	if c != nil {
		s.r.noteTrack(track, name)
	}
	return c
}

// SetArg attaches a key/value annotation exported with the span. It returns
// s for chaining and is a no-op on nil spans.
func (s *Span) SetArg(key string, v any) *Span {
	if s == nil {
		return nil
	}
	if s.args == nil {
		s.args = make(map[string]any)
	}
	s.args[key] = v
	return s
}

// End records the span's duration into the registry. End is idempotent and
// nil-safe.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	end := time.Now()
	r := s.r
	r.mu.Lock()
	r.spans = append(r.spans, SpanData{
		Name:  s.name,
		Track: s.track,
		Start: s.start.Sub(r.epoch),
		Dur:   end.Sub(s.start),
		Args:  s.args,
	})
	r.mu.Unlock()
}

// Spans returns a copy of every recorded span in end order.
func (r *Registry) Spans() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, len(r.spans))
	copy(out, r.spans)
	return out
}

// Counters returns every registered counter sorted by name.
func (r *Registry) Counters() []*Counter {
	r.cmu.Lock()
	out := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, c)
	}
	r.cmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Package-level conveniences over the Default registry.

// Enable turns on the Default registry.
func Enable() { def.Enable() }

// Disable turns off the Default registry.
func Disable() { def.Disable() }

// Enabled reports whether the Default registry is recording.
func Enabled() bool { return def.Enabled() }

// Reset clears the Default registry's spans and counter values.
func Reset() { def.Reset() }

// GetCounter returns a named counter on the Default registry.
func GetCounter(name string) *Counter { return def.GetCounter(name) }

// Start begins a root span on the Default registry (nil when disabled).
func Start(name string) *Span { return def.Start(name) }

// StartOnTrack begins a root span on the given track of the Default registry.
func StartOnTrack(name string, track int) *Span { return def.StartOnTrack(name, track) }
