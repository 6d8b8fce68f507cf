package profile

import (
	"fmt"
	"math"
	"slices"

	"needle/internal/ballarus"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/wire"
)

// Data is the pure serializable core of a FunctionProfile: the path trace
// it measured and nothing derived from it, with no pointers into the
// profiled function. Path frequencies, block and edge counts, the decoded
// block sequences, per-path op counts, weights and ranking are all
// deterministic functions of the trace and the function's Ball-Larus DAG,
// so FromData reconstructs them bit-for-bit.
type Data struct {
	// Paths lists every executed path ID once, in the profile's rank order.
	Paths []int64
	// Runs is the path trace as maximal runs of one path (see
	// FunctionProfile.Runs), each naming its path by index into Paths.
	Runs []Run
	// Tail lists, in execution order, the block indices of a partial final
	// path: one a step limit or trap cut short before it completed. Its
	// blocks and edges were counted, but it is not an occurrence. Empty when
	// the run completed its last path.
	Tail []int32
}

// Data extracts the serializable core of the profile. It fails when the
// trace does not reproduce the profile's counts (a profile collected
// without a trace), since FromData could not rebuild it; it is also the
// encode-time check that the derivation FromData applies is exact. The
// result shares the profile's run column.
func (fp *FunctionProfile) Data() (*Data, error) {
	d := &Data{Paths: make([]int64, len(fp.Paths)), Runs: fp.Runs}
	for r, p := range fp.Paths {
		d.Paths[r] = p.ID
	}
	if err := checkRuns(fp.Runs, len(fp.Paths), fp.F.Name); err != nil {
		return nil, err
	}
	freq := make([]int64, len(fp.Paths))
	for _, run := range fp.Runs {
		freq[run.Rank] += int64(run.Len)
	}
	for r, p := range fp.Paths {
		if freq[r] != p.Freq {
			return nil, fmt.Errorf("profile: path %d of %s ran %d times but occurs %d times in the trace",
				p.ID, fp.F.Name, p.Freq, freq[r])
		}
	}
	f := fp.F
	if len(fp.BlockCounts) != len(f.Blocks) {
		return nil, fmt.Errorf("profile: %d block counts for the %d blocks of %s", len(fp.BlockCounts), len(f.Blocks), f.Name)
	}
	rule := newTailRule(f, fp.DAG)
	succ := rule.succ
	live := make([]int64, len(succ))
	for e, n := range fp.EdgeCounts {
		s := -1
		if e.From >= 0 && e.From < len(f.Blocks) && e.To >= 0 && e.To < len(f.Blocks) {
			s = succ.slot(int32(e.From), int32(e.To))
		}
		if s < 0 {
			return nil, fmt.Errorf("profile: counted edge %d->%d is not an edge of %s", e.From, e.To, f.Name)
		}
		live[s] = n
	}
	blocks, edges, err := traceCounts(rule, fp.Paths, d.Runs, nil)
	if err != nil {
		return nil, err
	}
	d.Tail = partialTail(rule, fp.Paths, d.Runs, fp.BlockCounts, blocks, live, edges)
	if d.Tail != nil {
		if blocks, edges, err = traceCounts(rule, fp.Paths, d.Runs, d.Tail); err != nil {
			return nil, err
		}
	}
	if !slices.Equal(blocks, fp.BlockCounts) || !slices.Equal(edges, live) {
		return nil, fmt.Errorf("profile: the path trace of %s does not reproduce its block and edge counts", f.Name)
	}
	return d, nil
}

// checkRuns reports the first run of function f's trace that is not one of
// its maximal runs over a table of n paths: an empty run, a rank outside
// the table, or a run of the same path as the run before it. A trace has
// exactly one such coding, so each profile encodes to one payload.
func checkRuns(runs []Run, n int, f string) error {
	for i, run := range runs {
		switch {
		case run.Rank < 0 || int(run.Rank) >= n:
			return fmt.Errorf("profile: run %d of %s has rank %d of %d paths", i, f, run.Rank, n)
		case run.Len <= 0:
			return fmt.Errorf("profile: run %d of %s has %d occurrences", i, f, run.Len)
		case i > 0 && run.Rank == runs[i-1].Rank:
			return fmt.Errorf("profile: runs %d and %d of %s are both of rank %d", i-1, i, f, run.Rank)
		}
	}
	return nil
}

// tailRule is the one rule a path of the trace obeys, which traceCounts
// checks on decode and partialTail follows on encode. Every completed
// occurrence and the partial tail start where a run resumes: at the entry
// block when no occurrence precedes them or the one before returned, and
// otherwise across a back edge out of that occurrence's final block. The
// tail then follows forward DAG edges only, since taking a back edge would
// have completed the path.
type tailRule struct {
	f    *ir.Function
	succ succTable
	// back[s] reports whether the edge in successor slot s is a back edge
	// of the Ball-Larus DAG.
	back []bool
}

func newTailRule(f *ir.Function, dag *ballarus.DAG) tailRule {
	succ := newSuccTable(f)
	back := make([]bool, len(succ))
	for s, v := range succ {
		if v >= 0 {
			back[s] = dag.IsBackEdge(f.Blocks[s/2], f.Blocks[v])
		}
	}
	return tailRule{f: f, succ: succ, back: back}
}

// resume returns the block an occurrence ended at when the next path
// continues it across a back edge, or -1 when the next path starts at the
// entry block instead. last is that block, -1 when no occurrence completed.
func (r tailRule) resume(last int32) int32 {
	if last < 0 || r.succ.returns(last) {
		return -1
	}
	return last
}

// allows reports whether a path may enter block v from u: its first block
// (first set) from u = resume(...), a later tail block from the block
// before it.
func (r tailRule) allows(u, v int32, first bool) bool {
	if first && u < 0 {
		return int(v) == r.f.Entry().Index
	}
	s := r.succ.slot(u, v)
	return s >= 0 && r.back[s] == first
}

// partialTail recovers the partial final path from what the counts hold
// beyond the trace's: from where tailRule starts it, it follows the
// surplus edges tailRule allows through surplus blocks. It returns nil when
// the trace accounts for every block. It counts the edges it follows into
// edges; the caller checks the result by deriving the counts again.
func partialTail(rule tailRule, table []*Path, runs []Run, liveBlocks, blocks, liveEdges, edges []int64) []int32 {
	extra := make([]int64, len(blocks))
	surplus := false
	for i := range blocks {
		extra[i] = liveBlocks[i] - blocks[i]
		surplus = surplus || extra[i] != 0
	}
	if !surplus {
		return nil
	}
	succ := rule.succ
	// next returns the successor of block b the surplus edges lead to, or -1.
	next := func(b int32, first bool) int32 {
		for s := 2 * b; s < 2*b+2 && succ[s] >= 0; s++ {
			if v := succ[s]; liveEdges[s] > edges[s] && extra[v] > 0 && rule.allows(b, v, first) {
				edges[s]++
				return v
			}
		}
		return -1
	}
	cur := int32(rule.f.Entry().Index)
	if len(runs) > 0 {
		p := table[runs[len(runs)-1].Rank]
		if last := rule.resume(p.Blocks[len(p.Blocks)-1]); last >= 0 {
			cur = next(last, true)
		}
	}
	var tail []int32
	for cur >= 0 && extra[cur] > 0 {
		tail = append(tail, cur)
		extra[cur]--
		cur = next(cur, false)
	}
	return tail
}

// FromData rehydrates a FunctionProfile against f: it rebuilds the
// Ball-Larus DAG (served by am; nil for a one-shot manager), decodes every
// listed path to its block sequence, counts each path's occurrences in the
// trace, derives the block and edge counts the trace implies (see
// traceCounts), and ranks exactly as Collector.Finish does. The result is
// indistinguishable from the profile the collector produced in the process
// that ran the workload, provided f is structurally identical to the
// profiled function (same blocks in the same order). Data that could not
// have come from a run of f is an error: a path ID f's DAG cannot decode,
// one the table lists twice, or a trace no run of f takes. The profile
// keeps d.Runs as its run column when d's table is in rank order, as Data
// writes it.
func FromData(am *pm.Manager, f *ir.Function, d *Data) (*FunctionProfile, error) {
	return fromData(am, f, d, decodeFloor)
}

// fromData is FromData with rankCounts' work floor as a parameter, so a
// test can force one worker or several.
func fromData(am *pm.Manager, f *ir.Function, d *Data, floor int) (*FunctionProfile, error) {
	if err := checkRuns(d.Runs, len(d.Paths), f.Name); err != nil {
		return nil, err
	}
	dag, err := ballarus.Build(pm.Ensure(am), f)
	if err != nil {
		return nil, fmt.Errorf("profile: rebuilding DAG for %s: %w", f.Name, err)
	}
	recs := make([]Path, len(d.Paths))
	for r, id := range d.Paths {
		recs[r].ID = id
	}
	for _, run := range d.Runs {
		recs[run.Rank].Freq += int64(run.Len)
	}
	for r := range recs {
		if recs[r].Freq == 0 {
			return nil, fmt.Errorf("profile: path %d of %s never occurs in the trace", recs[r].ID, f.Name)
		}
	}
	fp := &FunctionProfile{F: f, DAG: dag, Runs: d.Runs}
	if err := fp.rankCounts(recs, floor); err != nil {
		return nil, err
	}
	if id, ok := repeated(d.Paths); ok {
		return nil, fmt.Errorf("profile: path %d of %s listed twice", id, f.Name)
	}
	// fp.Paths is still in table order, the order the ranks index.
	rule := newTailRule(f, dag)
	blocks, edges, err := traceCounts(rule, fp.Paths, d.Runs, d.Tail)
	if err != nil {
		return nil, err
	}
	fp.BlockCounts = blocks
	fp.EdgeCounts = rule.succ.edgeMap(edges)
	if !slices.IsSortedFunc(fp.Paths, rankOrder) {
		// Data writes its table in rank order, so only a table from
		// elsewhere gets here: rank it and recode the trace to match. A
		// recoding is one to one, so the runs stay maximal.
		sortPaths(fp.Paths)
		rankOf := make(map[int64]int32, len(fp.Paths))
		for r, p := range fp.Paths {
			rankOf[p.ID] = int32(r)
		}
		fp.Runs = make([]Run, len(d.Runs))
		for i, run := range d.Runs {
			fp.Runs[i] = Run{Rank: rankOf[d.Paths[run.Rank]], Len: run.Len}
		}
	}
	return fp, nil
}

// repeated returns the least ID that ids lists more than once, found on a
// sorted copy: 8 B a path, where a set of IDs would cost several times that.
func repeated(ids []int64) (int64, bool) {
	s := slices.Clone(ids)
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return s[i], true
		}
	}
	return 0, false
}

// succTable is a function's CFG as dense successor slots: entry 2*b+k is
// the index of block b's k-th successor, -1 when b has fewer than k+1. It
// is also how derived edges are counted: edges[2*b+k] counts the edge into
// that successor, a parallel condbr edge (both targets one block) counting
// in slot 2*b only, as the compiled plan counts it.
type succTable []int32

func newSuccTable(f *ir.Function) succTable {
	t := make(succTable, 2*len(f.Blocks))
	for i := range t {
		t[i] = -1
	}
	for _, b := range f.Blocks {
		for k, s := range b.Succs() {
			t[2*b.Index+k] = int32(s.Index)
		}
	}
	return t
}

// slot returns the slot of the edge from block u to block v, or -1 when v
// is not a successor of u.
func (t succTable) slot(u, v int32) int {
	switch s := 2 * int(u); {
	case t[s] == v:
		return s
	case t[s+1] == v:
		return s + 1
	}
	return -1
}

// returns reports whether block u has no successor (it ends in a return).
func (t succTable) returns(u int32) bool { return t[2*u] < 0 }

// edgeMap turns dense slot counts into the profile's EdgeCounts map.
func (t succTable) edgeMap(edges []int64) map[Edge]int64 {
	n := 0
	for _, c := range edges {
		if c != 0 {
			n++
		}
	}
	m := make(map[Edge]int64, n)
	for s, c := range edges {
		if c != 0 {
			m[Edge{s / 2, int(t[s])}] = c
		}
	}
	return m
}

// traceCounts derives the block and edge counts (dense by succTable slot) a
// path trace implies. Every block entry and every edge taken belongs to
// exactly one path: the blocks and inner edges of each occurrence, the
// boundary edge from each occurrence into the next (none after a path that
// ends at a return: the run ended there), and the blocks and edges of the
// partial tail, entered over the boundary edge out of the last occurrence.
// Each occurrence starts, as the tail does, where tailRule says a run
// resumes, and each tail block follows a forward edge; anything else is an
// error. table is indexed by rank, and each path's Freq must be its
// occurrence count. The trace is read a run at a time: the occurrences of
// one run after its first all enter over the same boundary edge.
func traceCounts(rule tailRule, table []*Path, runs []Run, tail []int32) (blocks, edges []int64, err error) {
	succ := rule.succ
	blocks = make([]int64, len(succ)/2)
	edges = make([]int64, len(succ))
	// ends[2*r] is the first block of the rank-r path, and ends[2*r+1]
	// where a run resumes after it (tailRule.resume of its last block).
	ends := make([]int32, 2*len(table))
	for r, p := range table {
		prev := int32(-1)
		for _, i := range p.Blocks {
			blocks[i] += p.Freq
			if prev >= 0 {
				edges[succ.slot(prev, i)] += p.Freq // a DAG path follows CFG edges
			}
			prev = i
		}
		ends[2*r], ends[2*r+1] = p.Blocks[0], rule.resume(prev)
	}
	// Every occurrence, and then the tail, starts where a run resumes after
	// the occurrence before it; the edge it enters over is counted.
	prev := int32(-1)
	occ := 0 // occurrences before the run
	for _, run := range runs {
		start, resume := ends[2*run.Rank], ends[2*run.Rank+1]
		if !rule.allows(prev, start, true) {
			return nil, nil, fmt.Errorf("profile: occurrence %d starts at block %d, not where a run resumes", occ, start)
		}
		if prev >= 0 {
			edges[succ.slot(prev, start)]++
		}
		if run.Len > 1 {
			if !rule.allows(resume, start, true) {
				return nil, nil, fmt.Errorf("profile: occurrence %d starts at block %d, not where a run resumes", occ+1, start)
			}
			if resume >= 0 {
				edges[succ.slot(resume, start)] += int64(run.Len) - 1
			}
		}
		prev = resume
		occ += int(run.Len)
	}
	for i, t := range tail {
		if t < 0 || int(t) >= len(blocks) {
			return nil, nil, fmt.Errorf("profile: partial path block %d of %d", t, len(blocks))
		}
		if !rule.allows(prev, t, i == 0) {
			return nil, nil, fmt.Errorf("profile: partial path enters block %d from block %d, not where a run resumes or along a forward edge", t, prev)
		}
		blocks[t]++
		if prev >= 0 {
			edges[succ.slot(prev, t)]++
		}
		prev = t
	}
	return blocks, edges, nil
}

// Append appends d in its positional layout (docs/PIPELINE.md): the path-ID
// table as a uvarint list, the runs as their count and then each run's
// rank and length as uvarints, and the partial tail's block indices as a
// uvarint list.
func (d *Data) Append(b []byte) []byte {
	b = wire.AppendUints(b, d.Paths)
	b = wire.AppendUvarint(b, uint64(len(d.Runs)))
	for _, run := range d.Runs {
		b = wire.AppendUvarint(b, uint64(run.Rank))
		b = wire.AppendUvarint(b, uint64(run.Len))
	}
	return wire.AppendUints(b, d.Tail)
}

// ReadData reads the layout Append writes. It checks the layout only, each
// rank against the path table and each length against math.MaxInt32;
// FromData checks the runs against each other and the contents against
// the function. The result is meaningful only when r has not failed.
func ReadData(r *wire.Reader) *Data {
	d := &Data{Paths: wire.Uints[int64](r, math.MaxInt)}
	if n := r.Count(); n > 0 {
		d.Runs = make([]Run, n)
		for i := range d.Runs {
			d.Runs[i] = Run{Rank: int32(r.Index(len(d.Paths))), Len: int32(r.Index(math.MaxInt32))}
		}
	}
	d.Tail = wire.Uints[int32](r, math.MaxInt32)
	return d
}
