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
	// Ranks is the path trace: occurrence i executed Paths[Ranks[i]].
	Ranks []int32
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
// result shares the profile's rank column.
func (fp *FunctionProfile) Data() (*Data, error) {
	d := &Data{Paths: make([]int64, len(fp.Paths)), Ranks: fp.Ranks}
	for r, p := range fp.Paths {
		d.Paths[r] = p.ID
	}
	freq := make([]int64, len(fp.Paths))
	for i, r := range fp.Ranks {
		if r < 0 || int(r) >= len(fp.Paths) {
			return nil, fmt.Errorf("profile: occurrence %d of %s has rank %d of %d paths", i, fp.F.Name, r, len(fp.Paths))
		}
		freq[r]++
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
	succ := newSuccTable(f)
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
	blocks, edges, err := traceCounts(succ, fp.Paths, d.Ranks, nil)
	if err != nil {
		return nil, err
	}
	d.Tail = partialTail(f, succ, fp.Paths, d.Ranks, fp.BlockCounts, blocks, live, edges)
	if d.Tail != nil {
		if blocks, edges, err = traceCounts(succ, fp.Paths, d.Ranks, d.Tail); err != nil {
			return nil, err
		}
	}
	if !slices.Equal(blocks, fp.BlockCounts) || !slices.Equal(edges, live) {
		return nil, fmt.Errorf("profile: the path trace of %s does not reproduce its block and edge counts", f.Name)
	}
	return d, nil
}

// partialTail recovers the partial final path from what the counts hold
// beyond the trace's: it starts at the boundary edge out of the last
// completed path (at the entry block when there is none, or when it
// returned) and follows the surplus edges through surplus blocks. It
// returns nil when the trace accounts for every block. It counts the edges
// it follows into edges; the caller checks the result by deriving the
// counts again.
func partialTail(f *ir.Function, succ succTable, table []*Path, ranks []int32, liveBlocks, blocks, liveEdges, edges []int64) []int32 {
	extra := make([]int64, len(blocks))
	surplus := false
	for i := range blocks {
		extra[i] = liveBlocks[i] - blocks[i]
		surplus = surplus || extra[i] != 0
	}
	if !surplus {
		return nil
	}
	// next returns the successor of block b the surplus edges lead to, or -1.
	next := func(b int32) int32 {
		for s := 2 * b; s < 2*b+2 && succ[s] >= 0; s++ {
			if v := succ[s]; liveEdges[s] > edges[s] && extra[v] > 0 {
				edges[s]++
				return v
			}
		}
		return -1
	}
	cur := int32(f.Entry().Index)
	if len(ranks) > 0 {
		p := table[ranks[len(ranks)-1]]
		if last := int32(p.Blocks[len(p.Blocks)-1].Index); !succ.returns(last) {
			cur = next(last)
		}
	}
	var tail []int32
	for cur >= 0 && extra[cur] > 0 && len(tail) < len(f.Blocks) {
		tail = append(tail, cur)
		extra[cur]--
		cur = next(cur)
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
// have come from a run of f is an error. The profile keeps d.Ranks as its
// rank column when d's table is in rank order, as Data writes it.
func FromData(am *pm.Manager, f *ir.Function, d *Data) (*FunctionProfile, error) {
	dag, err := ballarus.Build(pm.Ensure(am), f)
	if err != nil {
		return nil, fmt.Errorf("profile: rebuilding DAG for %s: %w", f.Name, err)
	}
	recs := make([]Path, len(d.Paths))
	for r, id := range d.Paths {
		recs[r].ID = id
	}
	for i, r := range d.Ranks {
		if r < 0 || int(r) >= len(d.Paths) {
			return nil, fmt.Errorf("profile: occurrence %d has rank %d of %d paths", i, r, len(d.Paths))
		}
		recs[r].Freq++
	}
	for r := range recs {
		if recs[r].Freq == 0 {
			return nil, fmt.Errorf("profile: path %d of %s never occurs in the trace", recs[r].ID, f.Name)
		}
	}
	fp := &FunctionProfile{F: f, DAG: dag, Ranks: d.Ranks}
	if err := fp.rankCounts(recs); err != nil {
		return nil, err
	}
	// fp.Paths is still in table order, the order the ranks index.
	succ := newSuccTable(f)
	blocks, edges, err := traceCounts(succ, fp.Paths, d.Ranks, d.Tail)
	if err != nil {
		return nil, err
	}
	fp.BlockCounts = blocks
	fp.EdgeCounts = succ.edgeMap(edges)
	if !slices.IsSortedFunc(fp.Paths, rankOrder) {
		// Data writes its table in rank order, so only a table from
		// elsewhere gets here: rank it and recode the trace to match.
		sortPaths(fp.Paths)
		rankOf := make(map[int64]int32, len(fp.Paths))
		for r, p := range fp.Paths {
			rankOf[p.ID] = int32(r)
		}
		fp.Ranks = make([]int32, len(d.Ranks))
		for i, r := range d.Ranks {
			fp.Ranks[i] = rankOf[d.Paths[r]]
		}
	}
	return fp, nil
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
// table is indexed by rank, and each path's Freq must be its occurrence
// count.
func traceCounts(succ succTable, table []*Path, ranks, tail []int32) (blocks, edges []int64, err error) {
	blocks = make([]int64, len(succ)/2)
	edges = make([]int64, len(succ))
	// ends[2*r] and ends[2*r+1]: the first and last block of the rank-r path.
	ends := make([]int32, 2*len(table))
	for r, p := range table {
		prev := int32(-1)
		for _, b := range p.Blocks {
			i := int32(b.Index)
			blocks[i] += p.Freq
			if prev >= 0 {
				edges[succ.slot(prev, i)] += p.Freq // a DAG path follows CFG edges
			}
			prev = i
		}
		ends[2*r], ends[2*r+1] = int32(p.Blocks[0].Index), prev
	}
	// boundary counts the edge from block u, where a path ended, into block
	// v, where the next began.
	boundary := func(u, v int32) bool {
		if succ.returns(u) {
			return true
		}
		s := succ.slot(u, v)
		if s >= 0 {
			edges[s]++
		}
		return s >= 0
	}
	for j := 1; j < len(ranks); j++ {
		if !boundary(ends[2*ranks[j-1]+1], ends[2*ranks[j]]) {
			return nil, nil, fmt.Errorf("profile: occurrence %d does not continue occurrence %d along an edge", j, j-1)
		}
	}
	prev := int32(-1)
	if len(ranks) > 0 {
		prev = ends[2*ranks[len(ranks)-1]+1]
	}
	for i, t := range tail {
		if t < 0 || int(t) >= len(blocks) {
			return nil, nil, fmt.Errorf("profile: partial path block %d of %d", t, len(blocks))
		}
		blocks[t]++
		ok := true
		switch {
		case i > 0:
			if s := succ.slot(prev, t); s >= 0 {
				edges[s]++
			} else {
				ok = false
			}
		case prev >= 0:
			ok = boundary(prev, t)
		}
		if !ok {
			return nil, nil, fmt.Errorf("profile: partial path enters block %d from block %d along no edge", t, prev)
		}
		prev = t
	}
	return blocks, edges, nil
}

// Append appends d in its positional layout (docs/PIPELINE.md): the path-ID
// table, the trace as ranks into it, and the partial tail's block indices,
// each a uvarint list.
func (d *Data) Append(b []byte) []byte {
	b = wire.AppendUints(b, d.Paths)
	b = wire.AppendUints(b, d.Ranks)
	return wire.AppendUints(b, d.Tail)
}

// ReadData reads the layout Append writes. It checks the layout only;
// FromData checks the contents against the function. The result is
// meaningful only when r has not failed.
func ReadData(r *wire.Reader) *Data {
	d := &Data{Paths: wire.Uints[int64](r, math.MaxInt)}
	d.Ranks = wire.Uints[int32](r, len(d.Paths))
	d.Tail = wire.Uints[int32](r, math.MaxInt32)
	return d
}
