// Package pm caches the dataflow analyses the Needle pipeline's middle
// layers consume: dominators, post-dominators, liveness, natural loops,
// control dependence, the interpreter's execution plan, and the semantic
// analyses vet reads (SCCP, value ranges, memory dependence). A Manager
// computes each analysis of a function on first request and serves the
// same result ever after.
//
// That is sound because a function never changes once a Manager has seen
// it. Needle analyzes "the fully inlined hottest function" (Section II-A):
// the pipeline runs its transforms first — inlining builds a new function,
// the `-O` stage optimizes a clone — and only then hands the result to a
// fresh Manager. Nothing mutates a function a Manager holds, so no cached
// analysis ever needs invalidating.
//
// The Manager is safe for concurrent use; stores share one Manager per
// stage artifact across every run that reuses the artifact.
package pm

import (
	"fmt"
	"sync"

	"needle/internal/analysis"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/obs"
)

// Observability counters (no-ops until obs.Enable): analysis cache
// behaviour across every Manager in the process.
var (
	obsHits   = obs.GetCounter("pm.cache.hits")
	obsMisses = obs.GetCounter("pm.cache.misses")
)

// Kind identifies one cached analysis.
type Kind uint8

const (
	// KindDominators is the dominator tree.
	KindDominators Kind = iota
	// KindPostDominators is the post-dominator tree.
	KindPostDominators
	// KindLiveness is per-block live-in/live-out register sets.
	KindLiveness
	// KindLoops is the natural-loop nest.
	KindLoops
	// KindControlDeps is the branch -> control-dependent-blocks table.
	KindControlDeps
	// KindExecPlan is the interpreter's compiled execution plan.
	KindExecPlan
	// KindSCCP is the sparse-conditional-constant-propagation fixpoint.
	KindSCCP
	// KindRanges is the per-register value-range (interval) analysis.
	KindRanges
	// KindMemDep is the base+offset memory-dependence classifier.
	KindMemDep

	numKinds
)

var kindNames = [numKinds]string{
	"dom", "postdom", "liveness", "loops", "ctrldeps", "execplan", "sccp", "ranges", "memdep",
}

func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Stats counts cache behaviour, for tests and the perf harness.
type Stats struct {
	Hits   uint64
	Misses uint64
	// Computed counts the computations of each Kind; every miss computes
	// exactly one analysis, so the entries sum to Misses.
	Computed [numKinds]uint64
}

// cache is the state every handle onto one Manager shares.
type cache struct {
	mu sync.Mutex
	// funcs holds each function's analyses indexed by Kind; a nil entry has
	// not been computed (a computed-but-empty result is a typed nil, which
	// is a non-nil interface value and so still a hit).
	funcs map[*ir.Function]*[numKinds]any
	stats Stats
}

// Manager lazily computes and caches per-function analyses. The zero value
// is not usable; construct with NewManager.
type Manager struct {
	*cache
	span *obs.Span
}

// NewManager returns an empty analysis manager.
func NewManager() *Manager {
	return &Manager{cache: &cache{funcs: make(map[*ir.Function]*[numKinds]any)}}
}

// Ensure returns am, or a fresh Manager when am is nil. Entry points accept
// nil managers so one-shot callers need not construct one; pipelines that
// analyze the same function repeatedly should share a single Manager.
func Ensure(am *Manager) *Manager {
	if am == nil {
		return NewManager()
	}
	return am
}

// WithSpan returns a handle onto m's cache whose Span is sp. Layers that
// take a Manager but not a span (trace capture) parent their spans under
// it. The handle shares every cached analysis and statistic with m. A
// manager from NewManager has no span, so one stored in a shared artifact
// never carries one run's span into another.
func (m *Manager) WithSpan(sp *obs.Span) *Manager {
	return &Manager{cache: m.cache, span: sp}
}

// Span returns the span given to WithSpan, or nil: spans parented under
// nil are roots, which the disabled registry drops.
func (m *Manager) Span() *obs.Span { return m.span }

// Stats returns a snapshot of cache behaviour.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// lookup returns f's analysis k, computing it on the first request.
// Callers hold m.mu; compute may look up other analyses of f.
func (m *Manager) lookup(f *ir.Function, k Kind, compute func() any) any {
	c := m.funcs[f]
	if c == nil {
		c = new([numKinds]any)
		m.funcs[f] = c
	}
	if v := c[k]; v != nil {
		m.stats.Hits++
		obsHits.Add(1)
		return v
	}
	m.stats.Misses++
	m.stats.Computed[k]++
	obsMisses.Add(1)
	c[k] = compute()
	return c[k]
}

// Dominators returns the cached dominator tree of f.
func (m *Manager) Dominators(f *ir.Function) *analysis.DomTree {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dom(f)
}

func (m *Manager) dom(f *ir.Function) *analysis.DomTree {
	return m.lookup(f, KindDominators, func() any { return analysis.Dominators(f) }).(*analysis.DomTree)
}

// PostDominators returns the cached post-dominator tree of f.
func (m *Manager) PostDominators(f *ir.Function) *analysis.PostDomTree {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pdom(f)
}

func (m *Manager) pdom(f *ir.Function) *analysis.PostDomTree {
	return m.lookup(f, KindPostDominators, func() any { return analysis.PostDominators(f) }).(*analysis.PostDomTree)
}

// Liveness returns the cached live-in/live-out sets of f.
func (m *Manager) Liveness(f *ir.Function) *analysis.Liveness {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(f, KindLiveness, func() any { return analysis.ComputeLiveness(f) }).(*analysis.Liveness)
}

// NaturalLoops returns the cached natural-loop nest of f.
func (m *Manager) NaturalLoops(f *ir.Function) []*analysis.Loop {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(f, KindLoops, func() any { return analysis.NaturalLoops(f, m.dom(f)) }).([]*analysis.Loop)
}

// ControlDependents returns the cached branch -> control-dependent-blocks
// table of f (Ferrante/Ottenstein/Warren over the post-dominator tree).
func (m *Manager) ControlDependents(f *ir.Function) *analysis.ControlDeps {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(f, KindControlDeps, func() any {
		return analysis.ControlDependents(f, m.pdom(f))
	}).(*analysis.ControlDeps)
}

// ExecPlan returns the cached compiled execution plan of f (interp.BuildPlan).
func (m *Manager) ExecPlan(f *ir.Function) *interp.Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(f, KindExecPlan, func() any { return interp.BuildPlan(f) }).(*interp.Plan)
}

// SCCP returns the cached sparse-conditional-constant-propagation fixpoint
// of f: per-register lattice values plus block/edge executability.
func (m *Manager) SCCP(f *ir.Function) *analysis.SCCP {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(f, KindSCCP, func() any { return analysis.ComputeSCCP(f) }).(*analysis.SCCP)
}

// Ranges returns the cached value-range analysis of f (interval lattice
// with widening at loop headers).
func (m *Manager) Ranges(f *ir.Function) *analysis.Ranges {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(f, KindRanges, func() any { return analysis.ComputeRanges(f, m.dom(f)) }).(*analysis.Ranges)
}

// MemDep returns the cached base+offset memory-dependence classifier of f.
func (m *Manager) MemDep(f *ir.Function) *analysis.MemDep {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lookup(f, KindMemDep, func() any { return analysis.ComputeMemDep(f) }).(*analysis.MemDep)
}

// BackEdges returns the dominance back edges of f. The walk is linear in the
// CFG and derived from the cached dominator tree, so it is recomputed per
// call rather than cached.
func (m *Manager) BackEdges(f *ir.Function) []analysis.Edge {
	return analysis.BackEdges(f, m.Dominators(f))
}
