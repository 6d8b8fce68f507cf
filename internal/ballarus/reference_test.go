package ballarus

// Build and CompilePlan as they were before the dense-table rewrite, kept
// verbatim (types and functions renamed with a reference prefix) as the
// oracles dense_test.go checks the rewrite against.

import (
	"fmt"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/pm"
)

type referenceEdgeKey struct{ from, to int } // block indices

type referenceBackInfo struct {
	exitVal  int64 // Val(u->EXIT dummy)
	resetVal int64 // Val(ENTRY->w dummy)
}

// referenceDagEdge is an ordered out-edge of a DAG node used for path decoding.
type referenceDagEdge struct {
	to  int // node id
	val int64
}

// referenceDAG is the Ball-Larus path-numbering structure for one function.
type referenceDAG struct {
	F *ir.Function

	numPaths int64
	entryVal int64 // Val(ENTRY -> real entry block)

	normVal map[referenceEdgeKey]int64             // forward CFG edges
	backVal map[referenceEdgeKey]referenceBackInfo // back edges
	retVal  map[int]int64                          // Val(b->EXIT) for returning blocks

	// Decoding structures. Node ids: 0 = ENTRY, 1+i = block with Index i,
	// len(blocks)+1 = EXIT.
	out      [][]referenceDagEdge
	nPaths   []int64 // paths from node to EXIT
	exitNode int
}

// referenceBuild computes the path numbering for f. The function must be finished
// and verified. Dominance facts come from am (nil for a one-shot manager).
func referenceBuild(am *pm.Manager, f *ir.Function) (*referenceDAG, error) {

	am = pm.Ensure(am)
	dom := am.Dominators(f)
	back := make(map[referenceEdgeKey]bool)
	for _, e := range am.BackEdges(f) {
		back[referenceEdgeKey{e.From.Index, e.To.Index}] = true
	}

	nBlocks := len(f.Blocks)
	entryNode := 0
	exitNode := nBlocks + 1
	node := func(b *ir.Block) int { return b.Index + 1 }

	d := &referenceDAG{
		F:        f,
		normVal:  make(map[referenceEdgeKey]int64),
		backVal:  make(map[referenceEdgeKey]referenceBackInfo),
		retVal:   make(map[int]int64),
		out:      make([][]referenceDagEdge, nBlocks+2),
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
		key      referenceEdgeKey // original CFG edge this DAG edge represents
		kind     int              // 0 normal, 1 backExit, 2 backReset, 3 retExit, 4 entry
	}
	var raw []rawEdge
	raw = append(raw, rawEdge{entryNode, node(f.Entry()), referenceEdgeKey{}, 4})
	// ENTRY -> back-edge targets, ordered by block index, deduplicated.
	seenTarget := make(map[int]bool)
	for _, b := range f.Blocks {
		if !reachable[b.Index] {
			continue
		}
		for _, s := range b.Succs() {
			k := referenceEdgeKey{b.Index, s.Index}
			if back[k] && !seenTarget[s.Index] {
				seenTarget[s.Index] = true
				raw = append(raw, rawEdge{entryNode, node(s), referenceEdgeKey{-1, s.Index}, 2})
			}
		}
	}
	for _, b := range f.Blocks {
		if !reachable[b.Index] {
			continue
		}
		term := b.Term()
		if term.Op == ir.OpRet {
			raw = append(raw, rawEdge{node(b), exitNode, referenceEdgeKey{b.Index, -1}, 3})
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
			k := referenceEdgeKey{b.Index, s.Index}
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
			d.out[n] = append(d.out[n], referenceDagEdge{to: e.to, val: val})
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

// CompilePlan overlays this DAG's path numbering onto a compiled execution
// plan for the same function, producing the per-successor-slot edge
// annotations interp.RunProfiled consumes. The overlay is a separate object
// so the structural Plan cached by the analysis manager stays immutable and
// shareable. Edges absent from the numbering (out of unreachable blocks)
// get a zero annotation, matching Profiler, which leaves the path register
// untouched on them.
func (d *referenceDAG) CompilePlan(p *interp.Plan) *interp.BLPlan {
	if p.F() != d.F {
		panic("ballarus: CompilePlan called with a plan for a different function")
	}

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
			key := referenceEdgeKey{i, p.Succ(i, k)}
			if bi, ok := d.backVal[key]; ok {
				bl.Succs[i][k] = interp.BLEdge{Inc: bi.exitVal, Reset: bi.resetVal, Flush: true}
			} else if v, ok := d.normVal[key]; ok {
				bl.Succs[i][k] = interp.BLEdge{Inc: v}
			}
		}
	}
	return bl
}
