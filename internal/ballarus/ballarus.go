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

// Kinds of a successor slot's DAG edge.
const (
	edgeNone    = iota // out of an unreachable block: not in the DAG
	edgeForward        // a forward CFG edge, kept in the DAG
	edgeBack           // a back edge, replaced by u->EXIT and ENTRY->v
)

// slotEdge is the DAG edge of one successor slot: its kind and Val — the
// increment for a forward edge, Val(u->EXIT) for a back edge.
type slotEdge struct {
	val  int64
	kind uint8
}

// blockVals holds one block's edge values. Parallel slots (both condbr
// targets identical) are one CFG edge and carry the same value.
type blockVals struct {
	succ [2]slotEdge
	ret  int64 // Val(b->EXIT) when isRet
	// reset is Val(ENTRY->b) when b is a back-edge target (hdr > 0): the
	// path register's value after any back edge into b flushes. hdr is the
	// position of that dummy edge among ENTRY's out-edges.
	reset int64
	hdr   int32
	isRet bool
}

// dagEdge is an ordered out-edge of a DAG node used for path decoding;
// slot is the successor slot a block's edge stands for.
type dagEdge struct {
	to   int32 // node id
	slot int32
	val  int64
}

// DAG is the Ball-Larus path-numbering structure for one function.
type DAG struct {
	F *ir.Function

	numPaths int64
	entryVal int64 // Val(ENTRY -> real entry block)

	vals []blockVals // indexed by Block.Index

	// Decoding structures. Node ids: 0 = ENTRY, 1+i = block with Index i,
	// len(blocks)+1 = EXIT. Node v's out-edges, in increasing value, are
	// out[outOff[v]:outOff[v+1]].
	outOff   []int32
	out      []dagEdge
	exitNode int
}

// Build computes the path numbering for f. The function must be finished
// and verified. Dominance facts come from am (nil for a one-shot manager).
//
// A counting pass classifies every successor slot and sizes each node's
// out-edges; a second pass lays the edges out in one array; Kahn's
// algorithm orders the nodes, and edge values follow in reverse
// topological order.
func Build(am *pm.Manager, f *ir.Function) (*DAG, error) {
	obsDAGBuilds.Add(1)
	am = pm.Ensure(am)
	dom := am.Dominators(f)

	nBlocks := len(f.Blocks)
	nNodes := nBlocks + 2
	entryNode := 0
	exitNode := nBlocks + 1
	d := &DAG{F: f, vals: make([]blockVals, nBlocks), exitNode: exitNode}
	// outOff, then the in-degrees and the topological order.
	ints := make([]int32, 3*nNodes+1)
	d.outOff = ints[: nNodes+1 : nNodes+1]
	indeg, order := ints[nNodes+1:2*nNodes+1], ints[2*nNodes+1:2*nNodes+1]

	// Count each node's out-edges into outOff[node+1]. ENTRY reaches the
	// entry block and every back-edge target (in order of first sight); a
	// returning block reaches EXIT; any other block reaches each distinct
	// successor, a back edge becoming an edge to EXIT. Reachability
	// matters: unreachable blocks contribute no edges and no paths.
	outOff := d.outOff
	outOff[entryNode+1] = 1
	nodesInGraph := 2 // ENTRY + EXIT
	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue
		}
		nodesInGraph++
		v := &d.vals[b.Index]
		term := b.Term()
		if term.Op == ir.OpRet {
			v.isRet = true
			outOff[b.Index+2]++
			continue
		}
		for k, s := range term.Blocks {
			if k == 1 && parallel(b) {
				v.succ[1].kind = v.succ[0].kind
				continue
			}
			v.succ[k].kind = edgeForward
			if dom.Dominates(s, b) {
				v.succ[k].kind = edgeBack
				if h := &d.vals[s.Index]; h.hdr == 0 {
					h.hdr = outOff[entryNode+1]
					outOff[entryNode+1]++
				}
			}
			outOff[b.Index+2]++
		}
	}
	for i := 1; i <= nNodes; i++ {
		outOff[i] += outOff[i-1]
	}

	// Lay the edges out: a block's forward successors in terminator order,
	// then its back-edge exits.
	d.out = make([]dagEdge, outOff[nNodes])
	d.out[0] = dagEdge{to: int32(f.Entry().Index + 1)}
	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue
		}
		seg := d.out[outOff[b.Index+1]:outOff[b.Index+2]]
		v := &d.vals[b.Index]
		if v.isRet {
			seg[0] = dagEdge{to: int32(exitNode)}
			continue
		}
		j := 0
		for _, kind := range [2]uint8{edgeForward, edgeBack} {
			for k, s := range b.Succs() {
				if (k == 1 && parallel(b)) || v.succ[k].kind != kind {
					continue
				}
				if kind == edgeForward {
					seg[j] = dagEdge{to: int32(s.Index + 1), slot: int32(k)}
				} else {
					seg[j] = dagEdge{to: int32(exitNode), slot: int32(k)}
					d.out[d.vals[s.Index].hdr] = dagEdge{to: int32(s.Index + 1)}
				}
				j++
			}
		}
	}

	// Topological order via Kahn's algorithm; a leftover node means the
	// graph stayed cyclic after back-edge removal (irreducible CFG). The
	// order array doubles as the FIFO queue.
	for _, e := range d.out {
		indeg[e.to]++
	}
	order = append(order, int32(entryNode))
	for head := 0; head < len(order); head++ {
		n := order[head]
		for _, e := range d.out[outOff[n]:outOff[n+1]] {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				order = append(order, e.to)
			}
		}
	}
	if len(order) != nodesInGraph {
		return nil, fmt.Errorf("%w in %s", ErrIrreducible, f.Name)
	}

	// NumPaths and edge values in reverse topological order.
	nPaths := make([]int64, nNodes) // paths from node to EXIT
	nPaths[exitNode] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := int(order[i])
		if n == exitNode {
			continue
		}
		var sum int64
		edges := d.out[outOff[n]:outOff[n+1]]
		for j := range edges {
			e := &edges[j]
			val := sum
			tp := nPaths[e.to]
			if tp > maxPaths || sum > maxPaths-tp {
				return nil, fmt.Errorf("%w in %s", ErrTooManyPaths, f.Name)
			}
			sum += tp
			e.val = val
			switch {
			case n == entryNode && j == 0:
				d.entryVal = val
			case n == entryNode:
				d.vals[e.to-1].reset = val
			case d.vals[n-1].isRet:
				d.vals[n-1].ret = val
			default:
				v := &d.vals[n-1]
				v.succ[e.slot].val = val
				if parallel(f.Blocks[n-1]) {
					v.succ[1].val = val
				}
			}
		}
		nPaths[n] = sum
		if sum == 0 {
			// A node with no out-edges other than through cycles; cannot
			// happen in verified functions (every block terminates and EXIT
			// is reachable), but guard anyway.
			return nil, fmt.Errorf("ballarus: block %d of %s reaches no exit", n-1, f.Name)
		}
	}
	d.numPaths = nPaths[entryNode]
	return d, nil
}

// parallel reports whether b's two successor slots name the same block:
// one CFG edge, which the DAG holds once and both slots share.
func parallel(b *ir.Block) bool {
	s := b.Succs()
	return len(s) == 2 && s[0] == s[1]
}

// edge returns the DAG edge from block index from to block index to, or
// nil when there is none (no such CFG edge, or one out of an unreachable
// block).
func (d *DAG) edge(from, to int) *slotEdge {
	if from < 0 || from >= len(d.vals) {
		return nil
	}
	for k, s := range d.F.Blocks[from].Succs() {
		if s.Index == to && k < len(d.vals[from].succ) {
			if e := &d.vals[from].succ[k]; e.kind != edgeNone {
				return e
			}
		}
	}
	return nil
}

// NumPaths returns the number of distinct acyclic paths through the DAG.
func (d *DAG) NumPaths() int64 { return d.numPaths }

// EntryVal returns the initial path-register value on function entry.
func (d *DAG) EntryVal() int64 { return d.entryVal }

// IsBackEdge reports whether u->v is a back edge in the profiled CFG.
func (d *DAG) IsBackEdge(u, v *ir.Block) bool {
	e := d.edge(u.Index, v.Index)
	return e != nil && e.kind == edgeBack
}

// DecodeAppend expands a path ID into its sequence of basic blocks,
// appending their Block.Index values to dst and returning the extended
// slice. Decoding into a slice with room for PathLen(id) more blocks
// allocates nothing.
func (d *DAG) DecodeAppend(dst []int32, id int64) ([]int32, error) {
	if err := d.checkID(id); err != nil {
		return dst, err
	}
	n, rem := d.step(0, id) // from ENTRY
	for ; n > 0 && n != d.exitNode; n, rem = d.step(n, rem) {
		dst = append(dst, int32(n-1))
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
	edges := d.out[d.outOff[n]:d.outOff[n+1]]
	if len(edges) == 0 {
		return -1, rem
	}
	chosen := &edges[0]
	for i := 1; i < len(edges) && edges[i].val <= rem; i++ {
		chosen = &edges[i]
	}
	return int(chosen.to), rem - chosen.val
}

// Encode computes the path ID of a block sequence given by Block.Index
// (the inverse of DecodeAppend); used mainly by tests and region
// validation. The sequence must be a valid DAG path from a path start
// (function entry or loop header) to a path end (back-edge source or
// returning block).
func (d *DAG) Encode(blocks []int32) (int64, error) {
	if len(blocks) == 0 {
		return 0, errors.New("ballarus: empty path")
	}
	for _, b := range blocks {
		if b < 0 || int(b) >= len(d.vals) {
			return 0, fmt.Errorf("ballarus: block %d is not a block of %s", b, d.F.Name)
		}
	}
	var id int64
	first := d.F.Blocks[blocks[0]]
	if first == d.F.Entry() {
		id += d.entryVal
	} else if v := &d.vals[first.Index]; v.hdr > 0 {
		// A back-edge target: paths restart there after the back edge.
		id += v.reset
	} else {
		return 0, fmt.Errorf("ballarus: %s is not a valid path start", first.Name)
	}
	for i := 0; i+1 < len(blocks); i++ {
		e := d.edge(int(blocks[i]), int(blocks[i+1]))
		if e == nil || e.kind != edgeForward {
			return 0, fmt.Errorf("ballarus: %s->%s is not a forward edge", d.F.Blocks[blocks[i]].Name, d.F.Blocks[blocks[i+1]].Name)
		}
		id += e.val
	}
	last := blocks[len(blocks)-1]
	v := &d.vals[last]
	if v.isRet {
		return id + v.ret, nil
	}
	// Otherwise the path must end at a back-edge source.
	for _, e := range v.succ {
		if e.kind == edgeBack {
			return id + e.val, nil
		}
	}
	return 0, fmt.Errorf("ballarus: %s is not a valid path end", d.F.Blocks[last].Name)
}

// CompilePlan overlays this DAG's path numbering onto a compiled execution
// plan for the same function, producing the per-successor-slot edge
// annotations interp.RunProfiled consumes. The overlay is a separate object
// so the structural Plan cached by the analysis manager stays immutable and
// shareable. Edges absent from the numbering (out of unreachable blocks)
// get a zero annotation: the path register stays untouched on them.
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
	for i := range d.vals {
		v := &d.vals[i]
		bl.RetVal[i] = v.ret
		// The plan's successor slots are the terminator's, as d's are.
		for k := 0; k < p.NumSuccs(i); k++ {
			switch e := v.succ[k]; e.kind {
			case edgeBack:
				bl.Succs[i][k] = interp.BLEdge{Inc: e.val, Reset: d.vals[p.Succ(i, k)].reset, Flush: true}
			case edgeForward:
				bl.Succs[i][k] = interp.BLEdge{Inc: e.val}
			}
		}
	}
	return bl
}

// PathOps returns the number of instructions attributed to one occurrence
// of the path whose blocks of f are given by Block.Index: the sum of all
// instructions (phis and terminators included) across them. Because
// Ball-Larus paths partition dynamic execution, summing freq*PathOps over
// all executed paths equals the interpreter's step count exactly.
func PathOps(f *ir.Function, blocks []int32) int64 {
	var n int64
	for _, b := range blocks {
		n += int64(len(f.Blocks[b].Instrs))
	}
	return n
}
