// Package profile aggregates dynamic execution data into the artifacts the
// Needle pipeline ranks and selects from: Ball-Larus path profiles with
// weights and coverage (Section III-A), edge and block profiles for the
// Superblock/Hyperblock baselines, branch bias distributions (Figure 4),
// and path-sequence statistics for target expansion (Table III).
package profile

import (
	"cmp"
	"fmt"
	"slices"

	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/obs"
	"needle/internal/pm"
)

// Observability counter (no-op until obs.Enable): collector-driven runs.
var obsRuns = obs.GetCounter("profile.runs.fast")

// Edge identifies a CFG edge by block indices within one function.
type Edge struct{ From, To int }

// Path is one executed Ball-Larus path with its profile-derived metrics.
type Path struct {
	ID     int64
	Freq   int64       // number of times the path executed
	Blocks []*ir.Block // decoded block sequence
	Ops    int64       // instructions per occurrence (phis+terminators included)
	Weight int64       // Pwt = Freq * Ops (Section III-A)

	Branches int // conditional branches traversed by the path
	MemOps   int // loads+stores along the path
}

// Coverage returns the fraction of the function's dynamic instructions this
// path accounts for (Pwt / Fwt).
func (p *Path) Coverage(fp *FunctionProfile) float64 {
	if fp.TotalWeight == 0 {
		return 0
	}
	return float64(p.Weight) / float64(fp.TotalWeight)
}

// FunctionProfile is the complete dynamic profile of one function.
type FunctionProfile struct {
	F   *ir.Function
	DAG *ballarus.DAG

	// Paths holds every executed path ranked by Weight, descending
	// (ties broken by ascending ID for determinism).
	Paths []*Path
	// TotalWeight is Fwt: the sum of all path weights, which equals the
	// function's total dynamic instruction count.
	TotalWeight int64
	// Trace is the sequence of executed path IDs, when trace recording was
	// enabled on the collector.
	Trace []int64

	EdgeCounts  map[Edge]int64
	BlockCounts []int64 // indexed by block index

	byID map[int64]*Path
}

// PathByID returns the executed path with the given ID, or nil.
func (fp *FunctionProfile) PathByID(id int64) *Path { return fp.byID[id] }

// Collector gathers a function profile across any number of runs of the
// function's compiled plan (interp.RunProfiled). Create with NewCollector,
// drive it with Run or RunTimed, and finally call Finish. Every call, a
// recursive one included, runs its callee to completion unprofiled: the
// profile covers the collector's own invocation of the function only.
type Collector struct {
	dag    *ballarus.DAG
	plan   *interp.Plan // shared and immutable, served by the analysis manager
	bl     *interp.BLPlan
	state  *interp.PathState
	onPath func(id int64)
}

// NewCollector prepares profiling for f. recordTrace enables path-trace
// capture (needed for Table III sequence analysis and the system
// simulator). Analyses are served by am (nil for a one-shot manager).
func NewCollector(am *pm.Manager, f *ir.Function, recordTrace bool) (*Collector, error) {
	am = pm.Ensure(am)
	dag, err := ballarus.Build(am, f)
	if err != nil {
		return nil, err
	}
	plan := am.ExecPlan(f)
	return &Collector{
		dag:   dag,
		plan:  plan,
		bl:    dag.CompilePlan(plan),
		state: interp.NewPathState(plan, dag.NumPaths(), recordTrace),
	}, nil
}

// SetOnPath registers a callback fired at every path completion with the
// completed path's ID; the system simulator uses it to attribute host
// cycles and branch history to path occurrences.
func (c *Collector) SetOnPath(fn func(id int64)) { c.onPath = fn }

// Run profiles one invocation of the function on args and mem.
func (c *Collector) Run(args, mem []uint64, maxSteps int64) (interp.Result, error) {
	return c.RunTimed(args, mem, nil, nil, maxSteps)
}

// RunTimed is Run with an attached timing model and optional branch-history
// register, the system simulator's configuration. The model is fed by
// direct calls — one block-batched FeedBlock per executed block when it
// implements interp.BlockTiming (the OOO model does), per-instruction Feed
// otherwise. A timed run of a function with calls fails with
// interp.ErrTimedCall.
func (c *Collector) RunTimed(args, mem []uint64, timing interp.Timing, hist *uint64, maxSteps int64) (interp.Result, error) {
	obsRuns.Add(1)
	return interp.RunProfiled(c.plan, c.bl, args, mem, c.state, interp.PlanOpts{
		MaxSteps: maxSteps,
		Timing:   timing,
		History:  hist,
		OnPath:   c.onPath,
	})
}

// Finish decodes and ranks the collected paths into a FunctionProfile. The
// profile shares the collector's block counts and trace, so the collector
// must not run again.
func (c *Collector) Finish() (*FunctionProfile, error) {
	st := c.state
	counts := make(map[int64]int64)
	st.EachPath(func(id, n int64) { counts[id] = n })
	edges := make(map[Edge]int64)
	for slot, n := range st.Edges {
		if n != 0 {
			from, to := c.plan.Edge(slot)
			edges[Edge{from, to}] = n
		}
	}
	fp := &FunctionProfile{
		F:           c.dag.F,
		DAG:         c.dag,
		Trace:       st.Trace,
		EdgeCounts:  edges,
		BlockCounts: st.Blocks,
	}
	if err := fp.rankCounts(counts); err != nil {
		return nil, err
	}
	return fp, nil
}

// rankCounts decodes raw (path ID -> count) accumulators into ranked Path
// entries: the shared recipe behind Finish and FromData, so a profile
// rehydrated from serialized counts is bit-identical to one built live.
//
// It allocates a fixed number of times, however many paths executed: every
// Path record lives in one backing array, and every path's blocks in one
// arena sized exactly by a length-only walk first. Each Path.Blocks is a
// window of the arena whose capacity equals its length, so an append by a
// consumer copies instead of overwriting the next path's blocks. Per-path
// sums read per-block tables instead of every instruction of every path.
func (fp *FunctionProfile) rankCounts(counts map[int64]int64) error {
	recs := make([]Path, 0, len(counts))
	size := 0
	for id, freq := range counts {
		n, err := fp.DAG.PathLen(id)
		if err != nil {
			return fmt.Errorf("profile: decoding path %d of %s: %w", id, fp.F.Name, err)
		}
		size += n
		recs = append(recs, Path{ID: id, Freq: freq})
	}
	sums := blockSums(fp.F)
	arena := make([]*ir.Block, 0, size)
	fp.Paths = make([]*Path, len(recs))
	fp.byID = make(map[int64]*Path, len(recs))
	for i := range recs {
		p := &recs[i]
		start := len(arena)
		arena, _ = fp.DAG.DecodeAppend(arena, p.ID) // PathLen accepted the ID
		p.Blocks = arena[start:len(arena):len(arena)]
		for _, b := range p.Blocks {
			s := &sums[b.Index]
			p.Ops += s.ops
			p.Branches += s.branch
			p.MemOps += s.mem
		}
		p.Weight = p.Freq * p.Ops
		fp.TotalWeight += p.Weight
		fp.Paths[i] = p
		fp.byID[p.ID] = p
	}
	slices.SortFunc(fp.Paths, func(a, b *Path) int {
		if a.Weight != b.Weight {
			return cmp.Compare(b.Weight, a.Weight)
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return nil
}

// blockSum is what one block adds to a path through it.
type blockSum struct {
	ops    int64 // instructions, phis and terminator included
	branch int   // 1 when the block ends in a conditional branch
	mem    int   // loads and stores
}

// blockSums tabulates every block of f by Block.Index.
func blockSums(f *ir.Function) []blockSum {
	sums := make([]blockSum, len(f.Blocks))
	for _, b := range f.Blocks {
		s := &sums[b.Index]
		s.ops = int64(len(b.Instrs))
		if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
			s.branch = 1
		}
		for _, in := range b.Instrs {
			if in.Op.IsMemory() {
				s.mem++
			}
		}
	}
	return sums
}

// CollectFunction profiles a single invocation of f on the given arguments
// and memory. Most workloads wrap their whole kernel in one function call,
// so this is the common entry point.
func CollectFunction(am *pm.Manager, f *ir.Function, args []uint64, mem []uint64, recordTrace bool, maxSteps int64) (*FunctionProfile, error) {
	c, err := NewCollector(am, f, recordTrace)
	if err != nil {
		return nil, err
	}
	if _, err := c.Run(args, mem, maxSteps); err != nil {
		return nil, err
	}
	return c.Finish()
}

// TopK returns the k highest-weight paths (fewer if fewer executed).
func (fp *FunctionProfile) TopK(k int) []*Path {
	if k > len(fp.Paths) {
		k = len(fp.Paths)
	}
	return fp.Paths[:k]
}

// CoverageTopK returns the cumulative coverage of the top k paths
// (the Σ5 Cov. statistic of Table II when k=5, and Figure 6's stacks).
func (fp *FunctionProfile) CoverageTopK(k int) float64 {
	var w int64
	for _, p := range fp.TopK(k) {
		w += p.Weight
	}
	if fp.TotalWeight == 0 {
		return 0
	}
	return float64(w) / float64(fp.TotalWeight)
}

// NumExecutedPaths returns C1 of Table II: the count of distinct paths that
// executed at least once.
func (fp *FunctionProfile) NumExecutedPaths() int { return len(fp.Paths) }

// BranchBias describes the bias of one conditional branch: the fraction of
// executions that followed its more frequent side.
type BranchBias struct {
	Block *ir.Block
	Taken int64 // executions that took Blocks[0]
	Not   int64 // executions that took Blocks[1]
}

// Total returns the branch's dynamic execution count.
func (b *BranchBias) Total() int64 { return b.Taken + b.Not }

// Bias returns max(taken, not)/total in [0.5, 1], or 1 for unexecuted
// branches.
func (b *BranchBias) Bias() float64 {
	t := b.Total()
	if t == 0 {
		return 1
	}
	m := b.Taken
	if b.Not > m {
		m = b.Not
	}
	return float64(m) / float64(t)
}

// BranchBiases returns the bias of every conditional branch that executed
// at least once, in block order. This feeds Figure 4.
func (fp *FunctionProfile) BranchBiases() []BranchBias {
	var out []BranchBias
	for _, b := range fp.F.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		bb := BranchBias{
			Block: b,
			Taken: fp.EdgeCounts[Edge{b.Index, t.Blocks[0].Index}],
			Not:   fp.EdgeCounts[Edge{b.Index, t.Blocks[1].Index}],
		}
		if t.Blocks[0] == t.Blocks[1] {
			// Parallel edge: the single edge count covers both sides.
			bb.Taken = fp.EdgeCounts[Edge{b.Index, t.Blocks[0].Index}]
			bb.Not = 0
		}
		if bb.Total() > 0 {
			out = append(out, bb)
		}
	}
	return out
}

// BiasHistogram buckets executed branches by bias: the returned slice holds
// the fraction of branches with bias in [0.5,0.6), [0.6,0.7), [0.7,0.8),
// and [0.8,1.0]. Figure 4 highlights the fraction below 0.8.
func (fp *FunctionProfile) BiasHistogram() [4]float64 {
	var hist [4]float64
	biases := fp.BranchBiases()
	if len(biases) == 0 {
		return hist
	}
	for _, b := range biases {
		switch v := b.Bias(); {
		case v < 0.6:
			hist[0]++
		case v < 0.7:
			hist[1]++
		case v < 0.8:
			hist[2]++
		default:
			hist[3]++
		}
	}
	for i := range hist {
		hist[i] /= float64(len(biases))
	}
	return hist
}

// FractionBelow80 returns the fraction of executed branches with <80% bias,
// the headline statistic of Figure 4.
func (fp *FunctionProfile) FractionBelow80() float64 {
	h := fp.BiasHistogram()
	return h[0] + h[1] + h[2]
}

// SequenceStats summarizes back-to-back path behaviour from the path trace
// (Section IV-A, Table III).
type SequenceStats struct {
	PathID     int64   // the analyzed (hottest) path
	Follows    int64   // occurrences that had a successor in the trace
	BestNext   int64   // most common successor path ID
	BestCount  int64   // occurrences of that successor
	Bias       float64 // BestCount / Follows
	SamePath   bool    // the best successor is the path itself
	GrowthOps  int64   // ops of path + ops of best successor
	ExpandFrac float64 // GrowthOps / ops(path): 2.0 when the same path repeats
}

// SequenceBias analyzes the trace successor distribution of the given path.
// It returns ok=false if the path never has a successor in the trace.
func (fp *FunctionProfile) SequenceBias(pathID int64) (SequenceStats, bool) {
	succ := make(map[int64]int64)
	var follows int64
	for i := 0; i+1 < len(fp.Trace); i++ {
		if fp.Trace[i] == pathID {
			succ[fp.Trace[i+1]]++
			follows++
		}
	}
	if follows == 0 {
		return SequenceStats{PathID: pathID}, false
	}
	var bestNext, bestCount int64
	first := true
	for id, c := range succ {
		if first || c > bestCount || (c == bestCount && id < bestNext) {
			bestNext, bestCount = id, c
			first = false
		}
	}
	st := SequenceStats{
		PathID:    pathID,
		Follows:   follows,
		BestNext:  bestNext,
		BestCount: bestCount,
		Bias:      float64(bestCount) / float64(follows),
		SamePath:  bestNext == pathID,
	}
	self := fp.PathByID(pathID)
	next := fp.PathByID(bestNext)
	if self != nil && next != nil && self.Ops > 0 {
		st.GrowthOps = self.Ops + next.Ops
		st.ExpandFrac = float64(st.GrowthOps) / float64(self.Ops)
	}
	return st, true
}

// HottestPath returns the top-ranked path, or nil if nothing executed.
func (fp *FunctionProfile) HottestPath() *Path {
	if len(fp.Paths) == 0 {
		return nil
	}
	return fp.Paths[0]
}

// OverlapCount returns C8 of Table II: for the top-k paths, the number of
// executed paths (across the whole profile) sharing at least one basic
// block with the hottest path. The paper quantifies block overlap across
// the top five paths; we report, for the hottest path, how many executed
// paths overlap it.
func (fp *FunctionProfile) OverlapCount(k int) int {
	if len(fp.Paths) == 0 {
		return 0
	}
	inHot := make(map[*ir.Block]bool)
	for _, b := range fp.Paths[0].Blocks {
		inHot[b] = true
	}
	limit := len(fp.Paths)
	if k > 0 && k < limit {
		limit = k
	}
	n := 0
	for _, p := range fp.Paths[:limit] {
		for _, b := range p.Blocks {
			if inHot[b] {
				n++
				break
			}
		}
	}
	return n
}
