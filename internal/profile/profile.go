// Package profile aggregates dynamic execution data into the artifacts the
// Needle pipeline ranks and selects from: Ball-Larus path profiles with
// weights and coverage (Section III-A), edge and block profiles for the
// Superblock/Hyperblock baselines, branch bias distributions (Figure 4),
// and path-sequence statistics for target expansion (Table III).
//
// A profile is mostly its paths' block sequences. Each path's blocks are
// Block.Index values in a window of one pointer-free arena per profile,
// and stored data (Data, and the braids built over a profile) names a path
// only by its rank: its index in the ranked FunctionProfile.Paths.
package profile

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/obs"
	"needle/internal/par"
	"needle/internal/pm"
)

// Observability counter (no-op until obs.Enable): collector-driven runs.
var obsRuns = obs.GetCounter("profile.runs.fast")

// Edge identifies a CFG edge by block indices within one function.
type Edge struct{ From, To int }

// Path is one executed Ball-Larus path with its profile-derived metrics.
type Path struct {
	ID   int64
	Freq int64 // number of times the path executed
	// Blocks is the decoded block sequence, each block by its Block.Index
	// in the profiled function: a window of one pointer-free arena that
	// every path of the profile shares.
	Blocks []int32
	Ops    int64 // instructions per occurrence (phis+terminators included)
	Weight int64 // Pwt = Freq * Ops (Section III-A)

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
	// (ties broken by ascending ID for determinism). A path's index here is
	// its rank, the name stored data gives it.
	Paths []*Path
	// TotalWeight is Fwt: the sum of all path weights, which equals the
	// function's total dynamic instruction count.
	TotalWeight int64
	// Runs is the path trace, when trace recording was enabled on the
	// collector, as maximal runs of one path: the occurrences in execution
	// order are Runs[0].Len occurrences of Paths[Runs[0].Rank], then those
	// of Runs[1], and so on. Adjacent runs have different ranks.
	Runs []Run

	EdgeCounts  map[Edge]int64
	BlockCounts []int64 // indexed by block index
}

// Run is Len back-to-back occurrences of the path of rank Rank: loops
// complete the same path again and again, so the trace is stored, decoded
// and replayed a run at a time.
type Run struct {
	Rank int32
	Len  int32
}

// Occurrences returns the number of path occurrences runs hold.
func Occurrences(runs []Run) int {
	n := 0
	for _, r := range runs {
		n += int(r.Len)
	}
	return n
}

// Collector gathers a function profile across any number of runs of the
// function's compiled plan (interp.RunProfiled). Create with NewCollector,
// drive it with Run or RunTimed, and finally call Finish. Every call, a
// recursive one included, runs its callee to completion unprofiled: the
// profile covers the collector's own invocation of the function only.
type Collector struct {
	dag   *ballarus.DAG
	plan  *interp.Plan // shared and immutable, served by the analysis manager
	bl    *interp.BLPlan
	state *interp.PathState
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

// Run profiles one invocation of the function on args and mem.
func (c *Collector) Run(args, mem []uint64, maxSteps int64) (interp.Result, error) {
	return c.RunTimed(args, mem, interp.PlanOpts{MaxSteps: maxSteps})
}

// RunTimed is Run under the full set of run options: step and occurrence
// bounds, and the run's dynamic stream fed to opts.Timing (see
// interp.Timing), the system simulator's configuration: one FeedBlock per
// executed block, every branch outcome, and every path completion. A nil
// Timing is Run. A timed run of a function with calls fails with
// interp.ErrTimedCall.
func (c *Collector) RunTimed(args, mem []uint64, opts interp.PlanOpts) (interp.Result, error) {
	obsRuns.Add(1)
	return interp.RunProfiled(c.plan, c.bl, args, mem, c.state, opts)
}

// Finish decodes and ranks the collected paths into a FunctionProfile, and
// codes the recorded path trace as runs of one rank. It ends the
// collector: the profile shares its block counts, and its path counts go
// back for reuse, so it must not run or finish again.
func (c *Collector) Finish() (*FunctionProfile, error) {
	defer c.state.Release()
	return c.finish(decodeFloor)
}

// decodeFloor is the path records each rankCounts worker must have. A
// record costs about 1.2 µs to size and decode (186.crafty: 6,897 paths of
// 241k blocks in 8 ms), so the floor is about 0.6 ms of work per worker.
// Handing a range to a parked P and joining it costs about 11 µs on a
// 2-vCPU guest, 1 µs when the P is still awake (BenchmarkRangesHandoff in
// package par).
const decodeFloor = 512

// finish is Finish with rankCounts' work floor as a parameter, so a test
// can force one worker or several.
func (c *Collector) finish(floor int) (*FunctionProfile, error) {
	st := c.state
	n := 0
	st.EachPath(func(int64, int64) { n++ })
	recs := make([]Path, 0, n)
	st.EachPath(func(id, freq int64) { recs = append(recs, Path{ID: id, Freq: freq}) })
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
		EdgeCounts:  edges,
		BlockCounts: st.Blocks,
	}
	if err := fp.rankCounts(recs, floor); err != nil {
		return nil, err
	}
	sortPaths(fp.Paths)
	var err error
	fp.Runs, err = runTrace(fp.Paths, st.Trace)
	return fp, err
}

// runTrace codes a trace of path IDs as maximal runs of one path, each
// path by its rank in paths. A nil trace (none was recorded) stays nil.
func runTrace(paths []*Path, ids []int64) ([]Run, error) {
	if ids == nil {
		return nil, nil
	}
	n := 0
	last := int64(-1) // path IDs are never negative
	for _, id := range ids {
		if id != last {
			n++
			last = id
		}
	}
	rankOf := make(map[int64]int32, len(paths))
	for r, p := range paths {
		rankOf[p.ID] = int32(r)
	}
	runs := make([]Run, 0, n)
	for i := 0; i < len(ids); {
		id := ids[i]
		j := i + 1
		for j < len(ids) && ids[j] == id {
			j++
		}
		r, ok := rankOf[id]
		if !ok {
			return nil, fmt.Errorf("profile: traced path %d is not in the profile", id)
		}
		if j-i >= math.MaxInt32 {
			return nil, fmt.Errorf("profile: path %d ran %d times back to back, more than a run holds", id, j-i)
		}
		runs = append(runs, Run{Rank: r, Len: int32(j - i)})
		i = j
	}
	return runs, nil
}

// rankCounts completes executed-path records that hold only an ID and a
// frequency — decoding each path's blocks and summing its metrics and
// weight — and points fp.Paths at them in record order, for the caller to
// rank with sortPaths: the shared recipe behind Finish and FromData, so a
// profile rehydrated from a stored trace is bit-identical to one built
// live. A path the DAG cannot decode is an error; of several, the first in
// record order is reported.
//
// It allocates a fixed number of times, however many paths executed: every
// Path lives in the caller's record array, and every path's blocks in one
// arena of block indices, sized exactly by a length-only walk first, so
// nothing is allocated before every ID has been checked. The arena holds
// no pointers, so the collector neither scans it nor guards stores into
// it. Each Path.Blocks is a window of the arena whose capacity equals its
// length, so an append by a consumer copies instead of overwriting the next
// path's blocks. Per-path sums read per-block tables instead of every
// instruction of every path.
//
// Both walks split the records into contiguous ranges, one per worker,
// when there are at least floor records per worker (package par). The
// arena holds the paths in record order whatever the split: each range
// decodes into the arena from the summed sizes of the ranges before it, so
// the profile is identical for any GOMAXPROCS.
func (fp *FunctionProfile) rankCounts(recs []Path, floor int) error {
	sums := blockSums(fp.F)
	// The one-worker case has calls of its own: a closure handed to
	// par.Ranges is heap-allocated whether or not a second worker runs.
	if w := par.Workers(len(recs), floor); w == 1 {
		s := fp.pathsLen(recs)
		if s.err != nil {
			return fp.decodeErr(recs, s)
		}
		fp.decodeInto(make([]int32, 0, s.size), recs, sums)
	} else {
		spans := make([]span, w)
		par.Ranges(len(recs), w, func(k, lo, hi int) {
			spans[k] = fp.pathsLen(recs[lo:hi])
			spans[k].bad += lo
		})
		size := 0
		for k := range spans {
			if s := spans[k]; s.err != nil {
				return fp.decodeErr(recs, s)
			}
			spans[k].start = size
			size += spans[k].size
		}
		arena := make([]int32, size)
		par.Ranges(len(recs), w, func(k, lo, hi int) {
			start := spans[k].start
			fp.decodeInto(arena[start:start], recs[lo:hi], sums)
		})
	}
	fp.Paths = make([]*Path, len(recs))
	for i := range recs {
		p := &recs[i]
		fp.TotalWeight += p.Weight
		fp.Paths[i] = p
	}
	return nil
}

// span is what pathsLen finds in a range of records.
type span struct {
	size  int   // blocks the range's paths decode to
	start int   // where they start in the arena
	bad   int   // the range's first undecodable record, when err is set
	err   error // why it is undecodable
}

// pathsLen sums the blocks recs' paths decode to, stopping at the first
// record the DAG cannot decode.
func (fp *FunctionProfile) pathsLen(recs []Path) span {
	var s span
	for i := range recs {
		n, err := fp.DAG.PathLen(recs[i].ID)
		if err != nil {
			s.bad, s.err = i, err
			break
		}
		s.size += n
	}
	return s
}

// decodeErr reports the undecodable record s found in recs.
func (fp *FunctionProfile) decodeErr(recs []Path, s span) error {
	return fmt.Errorf("profile: decoding path %d of %s: %w", recs[s.bad].ID, fp.F.Name, s.err)
}

// decodeInto decodes recs' paths into at, whose capacity pathsLen sized,
// and sums each path's metrics and weight from the per-block sums.
func (fp *FunctionProfile) decodeInto(at []int32, recs []Path, sums []blockSum) {
	for i := range recs {
		p := &recs[i]
		start := len(at)
		at, _ = fp.DAG.DecodeAppend(at, p.ID) // PathLen accepted the ID
		p.Blocks = at[start:len(at):len(at)]
		for _, b := range p.Blocks {
			s := &sums[b]
			p.Ops += s.ops
			p.Branches += s.branch
			p.MemOps += s.mem
		}
		p.Weight = p.Freq * p.Ops
	}
}

// sortPaths ranks paths by weight, descending, ties broken by ascending ID.
func sortPaths(paths []*Path) { slices.SortFunc(paths, rankOrder) }

// rankOrder is the order sortPaths ranks paths in.
func rankOrder(a, b *Path) int {
	if a.Weight != b.Weight {
		return cmp.Compare(b.Weight, a.Weight)
	}
	return cmp.Compare(a.ID, b.ID)
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
// It returns ok=false if the path never has a successor in the trace. It
// counts successors by rank, as the trace names them, after one search for
// the path's own rank.
func (fp *FunctionProfile) SequenceBias(pathID int64) (SequenceStats, bool) {
	k := int32(slices.IndexFunc(fp.Paths, func(p *Path) bool { return p.ID == pathID }))
	succ := make([]int64, len(fp.Paths)) // by rank
	var follows int64
	for i, run := range fp.Runs {
		if run.Rank != k {
			continue
		}
		// Within the run the path follows itself; its last occurrence is
		// followed by the next run's path, if any.
		n := int64(run.Len) - 1
		if i+1 < len(fp.Runs) {
			succ[fp.Runs[i+1].Rank]++
			follows++
		}
		succ[k] += n
		follows += n
	}
	if follows == 0 {
		return SequenceStats{PathID: pathID}, false
	}
	best := -1 // rank of the best successor
	for r, c := range succ {
		if c > 0 && (best < 0 || c > succ[best] || (c == succ[best] && fp.Paths[r].ID < fp.Paths[best].ID)) {
			best = r
		}
	}
	self, next := fp.Paths[k], fp.Paths[best]
	st := SequenceStats{
		PathID:    pathID,
		Follows:   follows,
		BestNext:  next.ID,
		BestCount: succ[best],
		Bias:      float64(succ[best]) / float64(follows),
		SamePath:  next == self,
	}
	if self.Ops > 0 {
		st.GrowthOps = self.Ops + next.Ops
		st.ExpandFrac = float64(st.GrowthOps) / float64(self.Ops)
	}
	return st, true
}

// Rank returns the rank of p, one of fp's paths: its index in fp.Paths,
// found by binary search, since the rank order is total.
func (fp *FunctionProfile) Rank(p *Path) int {
	r, _ := slices.BinarySearchFunc(fp.Paths, p, rankOrder)
	return r
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
	inHot := make([]bool, len(fp.F.Blocks)) // by Block.Index
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
