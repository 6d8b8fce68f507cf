// Package ballarus implements Ball-Larus efficient path profiling
// (Ball & Larus, MICRO 1996), the enumeration Needle uses to discover
// "what to specialize".
//
// The control-flow graph of a function is made acyclic by replacing every
// back edge u->w with two dummy edges ENTRY->w and u->EXIT. Every acyclic
// source-to-sink path in the resulting DAG receives a unique integer in
// [0, NumPaths) by assigning each edge a value such that the sum of edge
// values along a path is its ID. At run time a single counter accumulates
// edge values; the counter is flushed to a path ID at back edges and
// function exits, so every dynamically executed instruction is attributed
// to exactly one path occurrence.
package ballarus

import (
	"errors"
	"fmt"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/obs"
	"needle/internal/pm"
)

// Observability counters (no-ops until obs.Enable).
var (
	obsDAGBuilds    = obs.GetCounter("ballarus.dag.builds")
	obsPlanCompiles = obs.GetCounter("ballarus.plan.compiles")
)

// ErrTooManyPaths is returned when a function's acyclic path count exceeds
// the representable limit. Real path profilers degrade to hashing in this
// case; Needle simply declines to profile such functions.
var ErrTooManyPaths = errors.New("ballarus: path count overflow")

// ErrIrreducible is returned when removing dominance back edges does not
// make the CFG acyclic (an irreducible loop).
var ErrIrreducible = errors.New("ballarus: irreducible control flow")

// maxPaths bounds NumPaths per function; sums of edge values stay well
// within int64.
const maxPaths = int64(1) << 40

type edgeKey struct{ from, to int } // block indices

type backInfo struct {
	exitVal  int64 // Val(u->EXIT dummy)
	resetVal int64 // Val(ENTRY->w dummy)
}

// dagEdge is an ordered out-edge of a DAG node used for path decoding.
type dagEdge struct {
	to  int // node id
	val int64
}

// DAG is the Ball-Larus path-numbering structure for one function.
type DAG struct {
	F *ir.Function

	numPaths int64
	entryVal int64 // Val(ENTRY -> real entry block)

	normVal map[edgeKey]int64    // forward CFG edges
	backVal map[edgeKey]backInfo // back edges
	retVal  map[int]int64        // Val(b->EXIT) for returning blocks

	// Decoding structures. Node ids: 0 = ENTRY, 1+i = block with Index i,
	// len(blocks)+1 = EXIT.
	out      [][]dagEdge
	nPaths   []int64 // paths from node to EXIT
	exitNode int
}

// Build computes the path numbering for f. The function must be finished
// and verified. Dominance facts come from am (nil for a one-shot manager).
func Build(am *pm.Manager, f *ir.Function) (*DAG, error) {
	obsDAGBuilds.Add(1)
	am = pm.Ensure(am)
	dom := am.Dominators(f)
	back := make(map[edgeKey]bool)
	for _, e := range am.BackEdges(f) {
		back[edgeKey{e.From.Index, e.To.Index}] = true
	}

	nBlocks := len(f.Blocks)
	entryNode := 0
	exitNode := nBlocks + 1
	node := func(b *ir.Block) int { return b.Index + 1 }

	d := &DAG{
		F:        f,
		normVal:  make(map[edgeKey]int64),
		backVal:  make(map[edgeKey]backInfo),
		retVal:   make(map[int]int64),
		out:      make([][]dagEdge, nBlocks+2),
		nPaths:   make([]int64, nBlocks+2),
		exitNode: exitNode,
	}

	// Assemble ordered DAG out-edges. Reachability matters: unreachable
	// blocks contribute no edges and no paths.
	reachable := make([]bool, nBlocks)
	for _, b := range dom.RPO() {
		reachable[b.Index] = true
	}

	type rawEdge struct {
		from, to int
		key      edgeKey // original CFG edge this DAG edge represents
		kind     int     // 0 normal, 1 backExit, 2 backReset, 3 retExit, 4 entry
	}
	var raw []rawEdge
	raw = append(raw, rawEdge{entryNode, node(f.Entry()), edgeKey{}, 4})
	// ENTRY -> back-edge targets, ordered by block index, deduplicated.
	seenTarget := make(map[int]bool)
	for _, b := range f.Blocks {
		if !reachable[b.Index] {
			continue
		}
		for _, s := range b.Succs() {
			k := edgeKey{b.Index, s.Index}
			if back[k] && !seenTarget[s.Index] {
				seenTarget[s.Index] = true
				raw = append(raw, rawEdge{entryNode, node(s), edgeKey{-1, s.Index}, 2})
			}
		}
	}
	for _, b := range f.Blocks {
		if !reachable[b.Index] {
			continue
		}
		term := b.Term()
		if term.Op == ir.OpRet {
			raw = append(raw, rawEdge{node(b), exitNode, edgeKey{b.Index, -1}, 3})
			continue
		}
		// Normal successors in terminator order, back-edge exits afterward.
		var backs []rawEdge
		seen := make(map[int]bool)
		for _, s := range b.Succs() {
			if seen[s.Index] {
				continue // parallel edge: both condbr targets identical
			}
			seen[s.Index] = true
			k := edgeKey{b.Index, s.Index}
			if back[k] {
				backs = append(backs, rawEdge{node(b), exitNode, k, 1})
			} else {
				raw = append(raw, rawEdge{node(b), node(s), k, 0})
			}
		}
		raw = append(raw, backs...)
	}

	outRaw := make([][]rawEdge, nBlocks+2)
	indeg := make([]int, nBlocks+2)
	for _, e := range raw {
		outRaw[e.from] = append(outRaw[e.from], e)
		indeg[e.to]++
	}

	// Topological order via Kahn's algorithm; a leftover node means the
	// graph stayed cyclic after back-edge removal (irreducible CFG).
	order := make([]int, 0, nBlocks+2)
	queue := []int{entryNode}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range outRaw[n] {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	nodesInGraph := 2 // ENTRY + EXIT
	for i := 0; i < nBlocks; i++ {
		if reachable[i] {
			nodesInGraph++
		}
	}
	if len(order) != nodesInGraph {
		return nil, fmt.Errorf("%w in %s", ErrIrreducible, f.Name)
	}

	// NumPaths and edge values in reverse topological order.
	d.nPaths[exitNode] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n == exitNode {
			continue
		}
		var sum int64
		for _, e := range outRaw[n] {
			val := sum
			tp := d.nPaths[e.to]
			if tp > maxPaths || sum > maxPaths-tp {
				return nil, fmt.Errorf("%w in %s", ErrTooManyPaths, f.Name)
			}
			sum += tp
			d.out[n] = append(d.out[n], dagEdge{to: e.to, val: val})
			switch e.kind {
			case 0:
				d.normVal[e.key] = val
			case 1:
				bi := d.backVal[e.key]
				bi.exitVal = val
				d.backVal[e.key] = bi
			case 2:
				// Reset values are shared by every back edge targeting the
				// same header; record per-target and fan out below.
				d.retVal[-2-e.key.to] = val // stashed temporarily
			case 3:
				d.retVal[e.key.from] = val
			case 4:
				d.entryVal = val
			}
		}
		d.nPaths[n] = sum
		if sum == 0 {
			// A node with no out-edges other than through cycles; cannot
			// happen in verified functions (every block terminates and EXIT
			// is reachable), but guard anyway.
			return nil, fmt.Errorf("ballarus: block %d of %s reaches no exit", n-1, f.Name)
		}
	}
	d.numPaths = d.nPaths[entryNode]

	// Fan reset values out to the individual back edges.
	for k := range back {
		stash := -2 - k.to
		bi := d.backVal[k]
		bi.resetVal = d.retVal[stash]
		d.backVal[k] = bi
	}
	for k := range d.retVal {
		if k < 0 {
			delete(d.retVal, k)
		}
	}
	return d, nil
}

// NumPaths returns the number of distinct acyclic paths through the DAG.
func (d *DAG) NumPaths() int64 { return d.numPaths }

// EntryVal returns the initial path-register value on function entry.
func (d *DAG) EntryVal() int64 { return d.entryVal }

// IsBackEdge reports whether u->v is a back edge in the profiled CFG.
func (d *DAG) IsBackEdge(u, v *ir.Block) bool {
	_, ok := d.backVal[edgeKey{u.Index, v.Index}]
	return ok
}

// DecodeAppend expands a path ID into its sequence of basic blocks,
// appending them to dst and returning the extended slice. Decoding into a
// slice with room for PathLen(id) more blocks allocates nothing.
func (d *DAG) DecodeAppend(dst []*ir.Block, id int64) ([]*ir.Block, error) {
	if err := d.checkID(id); err != nil {
		return dst, err
	}
	n, rem := d.step(0, id) // from ENTRY
	for ; n > 0 && n != d.exitNode; n, rem = d.step(n, rem) {
		dst = append(dst, d.F.Blocks[n-1])
	}
	if n < 0 {
		return dst, d.stuck()
	}
	return dst, nil
}

// PathLen returns the number of blocks DecodeAppend appends for a path,
// found by the same walk without producing the blocks.
func (d *DAG) PathLen(id int64) (int, error) {
	if err := d.checkID(id); err != nil {
		return 0, err
	}
	k := 0
	n, rem := d.step(0, id)
	for ; n > 0 && n != d.exitNode; n, rem = d.step(n, rem) {
		k++
	}
	if n < 0 {
		return 0, d.stuck()
	}
	return k, nil
}

func (d *DAG) checkID(id int64) error {
	if id < 0 || id >= d.numPaths {
		return fmt.Errorf("ballarus: path id %d out of range [0,%d) for %s", id, d.numPaths, d.F.Name)
	}
	return nil
}

func (d *DAG) stuck() error {
	return fmt.Errorf("ballarus: path decode reached a node with no out-edges in %s", d.F.Name)
}

// step follows the DAG edge out of node n that a path with remaining value
// rem takes: the last edge whose value is <= rem. It returns the next node
// and the remaining value, or -1 when n has no out-edges.
func (d *DAG) step(n int, rem int64) (int, int64) {
	edges := d.out[n]
	if len(edges) == 0 {
		return -1, rem
	}
	chosen := edges[0]
	for _, e := range edges[1:] {
		if e.val > rem {
			break
		}
		chosen = e
	}
	return chosen.to, rem - chosen.val
}

// Encode computes the path ID of a block sequence (the inverse of
// DecodeAppend); used mainly by tests and region validation. The sequence
// must be a valid DAG path from a path start (function entry or loop
// header) to a path end (back-edge source or returning block).
func (d *DAG) Encode(blocks []*ir.Block) (int64, error) {
	if len(blocks) == 0 {
		return 0, errors.New("ballarus: empty path")
	}
	var id int64
	first := blocks[0]
	if first == d.F.Entry() {
		id += d.entryVal
	} else {
		// Must be a back-edge target: find any back edge into it.
		found := false
		for k, bi := range d.backVal {
			if k.to == first.Index {
				id += bi.resetVal
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("ballarus: %s is not a valid path start", first.Name)
		}
	}
	for i := 0; i+1 < len(blocks); i++ {
		v, ok := d.normVal[edgeKey{blocks[i].Index, blocks[i+1].Index}]
		if !ok {
			return 0, fmt.Errorf("ballarus: %s->%s is not a forward edge", blocks[i].Name, blocks[i+1].Name)
		}
		id += v
	}
	last := blocks[len(blocks)-1]
	if v, ok := d.retVal[last.Index]; ok {
		id += v
		return id, nil
	}
	// Otherwise the path must end at a back-edge source.
	for k, bi := range d.backVal {
		if k.from == last.Index {
			return id + bi.exitVal, nil
		}
	}
	return 0, fmt.Errorf("ballarus: %s is not a valid path end", last.Name)
}

// CompilePlan overlays this DAG's path numbering onto a compiled execution
// plan for the same function, producing the per-successor-slot edge
// annotations interp.RunProfiled consumes. The overlay is a separate object
// so the structural Plan cached by the analysis manager stays immutable and
// shareable. Edges absent from the numbering (out of unreachable blocks)
// get a zero annotation, matching Profiler, which leaves the path register
// untouched on them.
func (d *DAG) CompilePlan(p *interp.Plan) *interp.BLPlan {
	if p.F() != d.F {
		panic("ballarus: CompilePlan called with a plan for a different function")
	}
	obsPlanCompiles.Add(1)
	n := len(d.F.Blocks)
	bl := &interp.BLPlan{
		EntryVal: d.entryVal,
		NumPaths: d.numPaths,
		Succs:    make([][2]interp.BLEdge, n),
		RetVal:   make([]int64, n),
	}
	for i := 0; i < n; i++ {
		if v, ok := d.retVal[i]; ok {
			bl.RetVal[i] = v
		}
		for k := 0; k < p.NumSuccs(i); k++ {
			key := edgeKey{i, p.Succ(i, k)}
			if bi, ok := d.backVal[key]; ok {
				bl.Succs[i][k] = interp.BLEdge{Inc: bi.exitVal, Reset: bi.resetVal, Flush: true}
			} else if v, ok := d.normVal[key]; ok {
				bl.Succs[i][k] = interp.BLEdge{Inc: v}
			}
		}
	}
	return bl
}

// Profiler accumulates a Ball-Larus path profile while a function executes
// on the hook interpreter. Attach it via Hooks. A single Profiler may observe
// many invocations of the same function. Production profiling runs the
// compiled plan (profile.Collector); Profiler is the reference the plan's
// path counts are tested against.
type Profiler struct {
	dag *DAG

	// Counts maps path ID to execution frequency.
	Counts map[int64]int64
	// Trace, when RecordTrace is set, is the sequence of completed path IDs
	// in execution order (the "path trace" of Section IV-A).
	Trace       []int64
	RecordTrace bool
	// OnPath, when non-nil, fires at every path completion with the path ID,
	// letting the system simulator attribute costs to path occurrences.
	OnPath func(id int64)

	cur    int64
	inside bool
	// member is dense by Block.Index with an identity check: callee blocks
	// carry their own (overlapping) index ranges, so the index alone is not
	// enough, but the compare replaces a map lookup per event.
	member []*ir.Block
}

// NewProfiler creates a profiler for the function described by dag.
func NewProfiler(dag *DAG) *Profiler {
	member := make([]*ir.Block, len(dag.F.Blocks))
	for _, b := range dag.F.Blocks {
		member[b.Index] = b
	}
	return &Profiler{dag: dag, Counts: make(map[int64]int64), member: member}
}

// isMember reports whether b belongs to the profiled function.
func (p *Profiler) isMember(b *ir.Block) bool {
	return b.Index < len(p.member) && p.member[b.Index] == b
}

// DAG returns the underlying path numbering.
func (p *Profiler) DAG() *DAG { return p.dag }

func (p *Profiler) record(id int64) {
	p.Counts[id]++
	if p.RecordTrace {
		p.Trace = append(p.Trace, id)
	}
	if p.OnPath != nil {
		p.OnPath(id)
	}
}

// Hooks returns interpreter hooks that drive this profiler. The hooks only
// react to blocks of the profiled function (membership-checked), so they are
// safe to use even when other functions — callees included — run on the same
// interpreter. Recursive invocations of the profiled function itself are not
// supported; the pipeline inlines calls before profiling.
func (p *Profiler) Hooks() *interp.Hooks {
	f := p.dag.F
	return &interp.Hooks{
		Block: func(b *ir.Block) {
			if !p.inside && b == f.Entry() {
				p.inside = true
				p.cur = p.dag.entryVal
			}
		},
		Edge: func(from, to *ir.Block) {
			if !p.inside || !p.isMember(from) {
				return
			}
			if bi, ok := p.dag.backVal[edgeKey{from.Index, to.Index}]; ok {
				p.record(p.cur + bi.exitVal)
				p.cur = bi.resetVal
				return
			}
			if v, ok := p.dag.normVal[edgeKey{from.Index, to.Index}]; ok {
				p.cur += v
			}
		},
		Exit: func(from *ir.Block) {
			if !p.inside || !p.isMember(from) {
				return
			}
			if v, ok := p.dag.retVal[from.Index]; ok {
				p.record(p.cur + v)
			}
			p.inside = false
		},
	}
}

// TotalOccurrences returns the total number of recorded path executions.
func (p *Profiler) TotalOccurrences() int64 {
	var n int64
	for _, c := range p.Counts {
		n += c
	}
	return n
}

// PathOps returns the number of instructions attributed to one occurrence
// of the path: the sum of all instructions (phis and terminators included)
// across its blocks. Because Ball-Larus paths partition dynamic execution,
// summing freq*PathOps over all executed paths equals the interpreter's
// step count exactly.
func PathOps(blocks []*ir.Block) int64 {
	var n int64
	for _, b := range blocks {
		n += int64(len(b.Instrs))
	}
	return n
}
