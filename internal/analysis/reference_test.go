package analysis

// The analyses as they were before the dense-table rewrite, kept verbatim
// (only renamed) as the oracles the rewritten ones are checked against in
// dense_test.go.

import (
	"sort"

	"needle/internal/ir"
)

// referencePostDominators computes the post-dominator tree using the iterative
// algorithm over the reverse CFG with a virtual exit joining all returns.
func referencePostDominators(f *ir.Function) *PostDomTree {
	n := len(f.Blocks)
	exit := n
	// Reverse-graph successors are preds; reverse-graph entry is exit.
	// Build reverse postorder of the reverse graph starting at exit.
	preds := make([][]int, n+1) // reverse-graph edges: preds[v] in reverse graph = succs of v in CFG
	succs := make([][]int, n+1) // reverse-graph adjacency: from exit through preds
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpRet {
			succs[exit] = append(succs[exit], b.Index)
			preds[b.Index] = append(preds[b.Index], exit)
		}
		for _, s := range b.Succs() {
			// CFG edge b->s is reverse edge s->b.
			succs[s.Index] = append(succs[s.Index], b.Index)
			preds[b.Index] = append(preds[b.Index], s.Index)
		}
	}

	seen := make([]bool, n+1)
	var post []int
	var dfs func(v int)
	dfs = func(v int) {
		seen[v] = true
		for _, w := range succs[v] {
			if !seen[w] {
				dfs(w)
			}
		}
		post = append(post, v)
	}
	dfs(exit)
	order := make([]int, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		order = append(order, post[i])
	}
	rpoN := make([]int, n+1)
	for i := range rpoN {
		rpoN[i] = -1
	}
	for i, v := range order {
		rpoN[v] = i
	}

	ipdom := make([]int, n+1)
	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[exit] = exit

	intersect := func(a, b int) int {
		for a != b {
			for rpoN[a] > rpoN[b] {
				a = ipdom[a]
			}
			for rpoN[b] > rpoN[a] {
				b = ipdom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, v := range order {
			if v == exit {
				continue
			}
			newIdom := -1
			for _, p := range preds[v] { // predecessors in the reverse graph
				if rpoN[p] < 0 || ipdom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && ipdom[v] != newIdom {
				ipdom[v] = newIdom
				changed = true
			}
		}
	}
	return &PostDomTree{f: f, ipdom: ipdom, exit: exit, order: order, rpoN: rpoN}
}

// referenceControlDependents returns, for each conditional-branch block, the set of
// blocks control dependent on it: following Ferrante/Ottenstein/Warren, a
// block n is control dependent on branch b when n post-dominates some
// successor of b but does not post-dominate b itself.
func referenceControlDependents(f *ir.Function, pdom *PostDomTree) map[*ir.Block][]*ir.Block {
	out := make(map[*ir.Block][]*ir.Block)
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		depSet := make(map[*ir.Block]bool)
		for _, s := range t.Blocks {
			// Walk the post-dominator chain from s up to (but excluding)
			// b's post-dominator set.
			for n := s; n != nil && !pdom.PostDominates(n, b); n = pdom.Ipdom(n) {
				depSet[n] = true
			}
		}
		deps := make([]*ir.Block, 0, len(depSet))
		for _, blk := range f.Blocks { // deterministic order
			if depSet[blk] {
				deps = append(deps, blk)
			}
		}
		out[b] = deps
	}
	return out
}

// referenceComputeLiveness runs backward dataflow liveness over the function.
// Phi semantics: a phi's operand for predecessor P is live-out of P (not
// live-in of the phi's block); the phi's destination is defined at the top
// of its block.
//
// The transfer function is evaluated on register bitsets — the fixpoint
// loop is pure word arithmetic (out |= in[succ]; in = use | (out &^ def)),
// which keeps the pass linear-ish in practice where the old map-based
// version paid a hash probe per register per round.
func referenceComputeLiveness(f *ir.Function) *Liveness {
	n := len(f.Blocks)
	words := (f.NumRegs() + 64) >> 6 // registers are 1-based; bit 0 unused
	arena := make([]uint64, 4*n*words)
	sets := func(k int) []RegSet {
		out := make([]RegSet, n)
		for i := range out {
			out[i] = RegSet(arena[(k*n+i)*words : (k*n+i+1)*words])
		}
		return out
	}
	lv := &Liveness{In: sets(0), Out: sets(1)}

	// use[b]: registers read in b before any redefinition, excluding phi
	// operands (attributed to predecessors). def[b]: registers defined in b,
	// including phi destinations.
	use := sets(2)
	def := sets(3)
	// phiUse[p][s]: registers that predecessor p must supply to successor s's
	// phis.
	phiUse := make(map[*ir.Block]map[*ir.Block][]ir.Reg)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				for i, from := range in.Blocks {
					m := phiUse[from]
					if m == nil {
						m = make(map[*ir.Block][]ir.Reg)
						phiUse[from] = m
					}
					m[b] = append(m[b], in.Args[i])
				}
				def[b.Index].Add(in.Dst)
				continue
			}
			in.Uses(func(r ir.Reg) {
				if !def[b.Index].Has(r) {
					use[b.Index].Add(r)
				}
			})
			if in.Op.HasDest() {
				def[b.Index].Add(in.Dst)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b.Index]
			for _, s := range b.Succs() {
				for w, v := range lv.In[s.Index] {
					if v&^out[w] != 0 {
						out[w] |= v
						changed = true
					}
				}
				for _, r := range phiUse[b][s] {
					if !out.Has(r) {
						out.Add(r)
						changed = true
					}
				}
			}
			in, u, d := lv.In[b.Index], use[b.Index], def[b.Index]
			for w := range in {
				v := u[w] | out[w]&^d[w]
				if v&^in[w] != 0 {
					in[w] |= v
					changed = true
				}
			}
		}
	}
	return lv
}

// referenceSCCPResult is the SCCP result as the reference built it, with
// one successor-flag slice per block.
type referenceSCCPResult struct {
	f         *ir.Function
	values    []LatticeValue // indexed by register
	blockExec []bool         // indexed by block index
	edgeExec  [][]bool       // [block index][terminator successor slot]
}

// referenceUseSite is one instruction reading a register, with its block (uses in
// non-executable blocks are not re-evaluated).
type referenceUseSite struct {
	b  *ir.Block
	in *ir.Instr
}

// referenceFlowEdge identifies a CFG edge by source block and terminator slot.
type referenceFlowEdge struct {
	b    *ir.Block
	slot int
}

// referenceComputeSCCP runs sparse conditional constant propagation on f. The
// function must be verified IR; f is not mutated.
func referenceComputeSCCP(f *ir.Function) *referenceSCCPResult {
	s := &referenceSCCPResult{
		f:         f,
		values:    make([]LatticeValue, len(f.RegType)),
		blockExec: make([]bool, len(f.Blocks)),
		edgeExec:  make([][]bool, len(f.Blocks)),
	}
	for _, b := range f.Blocks {
		s.edgeExec[b.Index] = make([]bool, len(b.Succs()))
	}
	// Parameters are runtime inputs: overdefined from the start.
	for i := 0; i < f.NumParams(); i++ {
		s.values[f.Param(i)] = bottomVal
	}

	uses := make([][]referenceUseSite, len(f.RegType))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			bb, ii := b, in
			in.Uses(func(r ir.Reg) { uses[r] = append(uses[r], referenceUseSite{bb, ii}) })
		}
	}

	var flowWL []referenceFlowEdge
	var ssaWL []ir.Reg
	var blockWL []*ir.Block

	// lower installs a new value for in.Dst if it lowers the lattice, and
	// queues the SSA worklist on change. Evaluation is monotone, so a
	// "raise" can only come from re-evaluating with stale inputs — those
	// are ignored.
	lower := func(in *ir.Instr, nv LatticeValue) {
		old := s.values[in.Dst]
		if nv.State == LatTop || old.State == LatBottom {
			return
		}
		if old.State == nv.State && old.Bits == nv.Bits {
			return
		}
		if old.State == LatConst && nv.State == LatConst {
			nv = bottomVal // conflicting constants
		}
		s.values[in.Dst] = nv
		ssaWL = append(ssaWL, in.Dst)
	}

	val := func(r ir.Reg) LatticeValue {
		if r == ir.NoReg {
			return bottomVal
		}
		return s.values[r]
	}

	// predEdgeExecutable: is any edge from p into b executable?
	predEdgeExecutable := func(p, b *ir.Block) bool {
		for slot, t := range p.Succs() {
			if t == b && s.edgeExec[p.Index][slot] {
				return true
			}
		}
		return false
	}

	visit := func(b *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpPhi:
			nv := LatticeValue{State: LatTop}
			for i, from := range in.Blocks {
				if predEdgeExecutable(from, b) {
					nv = meet(nv, val(in.Args[i]))
				}
			}
			lower(in, nv)
		case ir.OpLoad, ir.OpCall:
			// Memory contents and call results are runtime facts.
			lower(in, bottomVal)
		case ir.OpStore:
			// No destination, no flow effect.
		case ir.OpBr:
			flowWL = append(flowWL, referenceFlowEdge{b, 0})
		case ir.OpCondBr:
			switch c := val(in.Args[0]); c.State {
			case LatConst:
				if c.Bits != 0 {
					flowWL = append(flowWL, referenceFlowEdge{b, 0})
				} else {
					flowWL = append(flowWL, referenceFlowEdge{b, 1})
				}
			case LatBottom:
				flowWL = append(flowWL, referenceFlowEdge{b, 0}, referenceFlowEdge{b, 1})
			}
		case ir.OpRet:
			// No successors.
		case ir.OpConst:
			lower(in, constVal(uint64(in.Imm)))
		case ir.OpSelect:
			c, t, e := val(in.Args[0]), val(in.Args[1]), val(in.Args[2])
			switch c.State {
			case LatConst:
				if c.Bits != 0 {
					lower(in, t)
				} else {
					lower(in, e)
				}
			case LatBottom:
				lower(in, meet(t, e))
			}
		case ir.OpDiv, ir.OpRem:
			d := val(in.Args[1])
			if d.IsConst() && d.Bits == 0 {
				// Guaranteed trap: never a constant.
				lower(in, bottomVal)
				return
			}
			a := val(in.Args[0])
			switch {
			case a.State == LatBottom || d.State == LatBottom:
				lower(in, bottomVal)
			case a.IsConst() && d.IsConst():
				bits, _ := ir.EvalPure(in.Op, in.Imm, a.Bits, d.Bits, 0) // divisor is non-zero
				lower(in, constVal(bits))
			}
		default:
			// Pure value computation: constant when every operand is.
			nv := LatticeValue{State: LatTop}
			var vals [3]uint64
			allConst := true
			for i, a := range in.Args {
				av := val(a)
				if av.State == LatBottom {
					nv = bottomVal
					allConst = false
					break
				}
				if av.State == LatTop {
					allConst = false
					continue
				}
				vals[i] = av.Bits
			}
			if allConst {
				if bits, ok := ir.EvalPure(in.Op, in.Imm, vals[0], vals[1], vals[2]); ok {
					nv = constVal(bits)
				} else {
					nv = bottomVal
				}
			}
			lower(in, nv)
		}
	}

	markBlock := func(b *ir.Block) {
		if !s.blockExec[b.Index] {
			s.blockExec[b.Index] = true
			blockWL = append(blockWL, b)
		}
	}
	markBlock(f.Entry())

	for len(flowWL) > 0 || len(ssaWL) > 0 || len(blockWL) > 0 {
		switch {
		case len(blockWL) > 0:
			b := blockWL[len(blockWL)-1]
			blockWL = blockWL[:len(blockWL)-1]
			for _, in := range b.Instrs {
				visit(b, in)
			}
		case len(flowWL) > 0:
			e := flowWL[len(flowWL)-1]
			flowWL = flowWL[:len(flowWL)-1]
			if s.edgeExec[e.b.Index][e.slot] {
				continue
			}
			s.edgeExec[e.b.Index][e.slot] = true
			to := e.b.Succs()[e.slot]
			if !s.blockExec[to.Index] {
				markBlock(to)
			} else {
				// A new incoming edge can only change the phis.
				for _, phi := range to.Phis() {
					visit(to, phi)
				}
			}
		default:
			r := ssaWL[len(ssaWL)-1]
			ssaWL = ssaWL[:len(ssaWL)-1]
			for _, u := range uses[r] {
				if s.blockExec[u.b.Index] {
					visit(u.b, u.in)
				}
			}
		}
	}
	return s
}

// referenceComputeMemDep normalizes every register's address form in f and runs the
// load-derived fixpoint. f must be verified IR; it is not mutated.
func referenceComputeMemDep(f *ir.Function) *MemDep {
	md := &MemDep{
		f:           f,
		forms:       make([]AddrForm, len(f.RegType)),
		have:        make([]bool, len(f.RegType)),
		loadDerived: make([]bool, len(f.RegType)),
	}

	def := make([]*ir.Instr, len(f.RegType))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDest() && in.Dst != ir.NoReg {
				def[in.Dst] = in
			}
		}
	}

	// formOf normalizes r's expression. visiting guards against cycles
	// through phis (a phi is always its own opaque base, but operand
	// recursion could still loop through unverified self-references).
	visiting := make([]bool, len(f.RegType))
	var formOf func(r ir.Reg) AddrForm
	opaque := func(r ir.Reg) AddrForm { return AddrForm{Bases: []ir.Reg{r}} }
	formOf = func(r ir.Reg) AddrForm {
		if r <= ir.NoReg || int(r) >= len(def) {
			return AddrForm{}
		}
		if md.have[r] {
			return md.forms[r]
		}
		if visiting[r] {
			return opaque(r)
		}
		visiting[r] = true
		defer func() {
			visiting[r] = false
			md.have[r] = true
		}()
		in := def[r]
		if in == nil {
			md.forms[r] = opaque(r) // parameter
			return md.forms[r]
		}
		switch in.Op {
		case ir.OpConst:
			if in.Type == ir.I64 {
				md.forms[r] = AddrForm{Offset: in.Imm}
				return md.forms[r]
			}
		case ir.OpCopy:
			md.forms[r] = formOf(in.Args[0])
			return md.forms[r]
		case ir.OpAdd:
			a, b := formOf(in.Args[0]), formOf(in.Args[1])
			bases := make([]ir.Reg, 0, len(a.Bases)+len(b.Bases))
			bases = append(bases, a.Bases...)
			bases = append(bases, b.Bases...)
			if len(bases) <= maxAddrBases {
				sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
				md.forms[r] = AddrForm{Bases: bases, Offset: a.Offset + b.Offset}
				return md.forms[r]
			}
		case ir.OpSub:
			a, b := formOf(in.Args[0]), formOf(in.Args[1])
			if len(b.Bases) == 0 { // x - const
				md.forms[r] = AddrForm{Bases: a.Bases, Offset: a.Offset - b.Offset}
				return md.forms[r]
			}
		}
		md.forms[r] = opaque(r)
		return md.forms[r]
	}
	for r := ir.Reg(1); int(r) < len(def); r++ {
		formOf(r)
	}

	// Load-derived fixpoint: seed with load destinations, then propagate
	// through any instruction (including phis) reading a derived register.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad && in.Dst != ir.NoReg {
				md.loadDerived[in.Dst] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.Op.HasDest() || in.Dst == ir.NoReg || md.loadDerived[in.Dst] {
					continue
				}
				derived := false
				in.Uses(func(r ir.Reg) {
					if md.loadDerived[r] {
						derived = true
					}
				})
				if derived {
					md.loadDerived[in.Dst] = true
					changed = true
				}
			}
		}
	}
	return md
}

// referenceReversePostorder returns the blocks of f reachable from the entry in
// reverse postorder. Unreachable blocks are omitted.
func referenceReversePostorder(f *ir.Function) []*ir.Block {
	seen := make([]bool, len(f.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.Index] = true
		for _, s := range b.Succs() {
			if !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if e := f.Entry(); e != nil {
		dfs(e)
	}
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// referenceDominators computes the dominator tree using the Cooper-Harvey-Kennedy
// iterative algorithm over reverse postorder.
func referenceDominators(f *ir.Function) *DomTree {
	rpo := referenceReversePostorder(f)
	rpoN := make([]int, len(f.Blocks))
	for i := range rpoN {
		rpoN[i] = -1
	}
	for i, b := range rpo {
		rpoN[b.Index] = i
	}
	idom := make([]*ir.Block, len(f.Blocks))
	entry := f.Entry()
	idom[entry.Index] = entry

	intersect := func(a, b *ir.Block) *ir.Block {
		for a != b {
			for rpoN[a.Index] > rpoN[b.Index] {
				a = idom[a.Index]
			}
			for rpoN[b.Index] > rpoN[a.Index] {
				b = idom[b.Index]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == entry {
				continue
			}
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if rpoN[p.Index] < 0 || idom[p.Index] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != nil && idom[b.Index] != newIdom {
				idom[b.Index] = newIdom
				changed = true
			}
		}
	}
	return &DomTree{f: f, idom: idom, rpo: rpo, rpoN: rpoN}
}

// referenceLoop is a natural loop: a header plus the set of blocks that can reach a
// back edge into the header without leaving the loop.
type referenceLoop struct {
	Header *ir.Block
	Blocks map[*ir.Block]bool
}

// referenceNaturalLoops finds all natural loops of f, merging loops that share a
// header. Loops are returned in header RPO order.
func referenceNaturalLoops(f *ir.Function, dom *DomTree) []*referenceLoop {
	byHeader := make(map[*ir.Block]*referenceLoop)
	var order []*ir.Block
	for _, e := range BackEdges(f, dom) {
		l := byHeader[e.To]
		if l == nil {
			l = &referenceLoop{Header: e.To, Blocks: map[*ir.Block]bool{e.To: true}}
			byHeader[e.To] = l
			order = append(order, e.To)
		}
		// Walk predecessors from the back-edge source until the header.
		stack := []*ir.Block{e.From}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if l.Blocks[b] {
				continue
			}
			l.Blocks[b] = true
			for _, p := range b.Preds {
				stack = append(stack, p)
			}
		}
	}
	loops := make([]*referenceLoop, 0, len(order))
	for _, h := range order {
		loops = append(loops, byHeader[h])
	}
	return loops
}

// referenceBackEdges returns the back edges of f: edges u->v where v
// dominates u.
func referenceBackEdges(f *ir.Function, dom *DomTree) []Edge {
	var edges []Edge
	for _, b := range dom.RPO() {
		for _, s := range b.Succs() {
			if dom.Dominates(s, b) {
				edges = append(edges, Edge{From: b, To: s})
			}
		}
	}
	return edges
}
