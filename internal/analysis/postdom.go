package analysis

import (
	"slices"

	"needle/internal/ir"
)

// PostDomTree holds immediate post-dominator information. Returning blocks
// (and blocks on endless paths, which verified functions do not have)
// post-dominate to a virtual exit node.
type PostDomTree struct {
	f     *ir.Function
	ipdom []int // indexed by block index; exit sentinel = len(blocks)
	exit  int
	order []int // blocks in reverse-graph RPO (i.e. postorder-ish) numbering
	rpoN  []int
}

// PostDominators computes the post-dominator tree using the iterative
// algorithm over the reverse CFG with a virtual exit joining all returns.
// The reverse graph is walked in place: a block's reverse successors are
// its Preds, the exit's are the returning blocks, and a block's reverse
// predecessors are its Succs (or the exit, for a returning block).
func PostDominators(f *ir.Function) *PostDomTree {
	n := len(f.Blocks)
	exit := n
	nRet := 0
	for _, b := range f.Blocks {
		if isReturn(b) {
			nRet++
		}
	}
	// One arena: rpoN, ipdom and order (kept by the tree), then the DFS
	// stack's nodes and next-child cursors, then the returning blocks.
	arena := make([]int, 5*(n+1)+nRet)
	rpoN, ipdom, order := arena[:n+1:n+1], arena[n+1:2*(n+1):2*(n+1)], arena[2*(n+1):3*(n+1):3*(n+1)]
	stack, next := arena[3*(n+1):4*(n+1)], arena[4*(n+1):5*(n+1)]
	rets := arena[5*(n+1):]
	nRet = 0
	for _, b := range f.Blocks {
		if isReturn(b) {
			rets[nRet] = b.Index
			nRet++
		}
	}

	// Depth-first postorder of the reverse graph from exit, each node's
	// reverse successors taken in order, on an explicit stack. rpoN marks
	// visited nodes until the numbering below overwrites it.
	for i := range rpoN {
		rpoN[i] = -1
	}
	post := order[:0]
	stack[0], next[0], rpoN[exit] = exit, 0, 0
	for sp := 0; sp >= 0; {
		v := stack[sp]
		w := -1
		if v == exit {
			if next[sp] < len(rets) {
				w = rets[next[sp]]
			}
		} else if preds := f.Blocks[v].Preds; next[sp] < len(preds) {
			w = preds[next[sp]].Index
		}
		if w < 0 {
			post = append(post, v)
			sp--
			continue
		}
		next[sp]++
		if rpoN[w] < 0 {
			rpoN[w] = 0
			sp++
			stack[sp], next[sp] = w, 0
		}
	}
	order = order[:len(post):len(post)]
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	for i := range rpoN {
		rpoN[i] = -1
	}
	for i, v := range order {
		rpoN[v] = i
	}

	for i := range ipdom {
		ipdom[i] = -1
	}
	ipdom[exit] = exit
	for changed := true; changed; {
		changed = false
		for _, v := range order {
			if v == exit {
				continue
			}
			b := f.Blocks[v]
			newIdom := -1
			if isReturn(b) {
				newIdom = exit // the exit is processed first and never moves
			}
			for _, s := range b.Succs() { // predecessors in the reverse graph
				p := s.Index
				if rpoN[p] < 0 || ipdom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom, rpoN, ipdom)
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

// isReturn reports whether b ends in a return.
func isReturn(b *ir.Block) bool {
	t := b.Term()
	return t != nil && t.Op == ir.OpRet
}

// intersect walks two nodes up the tree under construction to their
// nearest common ancestor (Cooper-Harvey-Kennedy).
func intersect(a, b int, rpoN, idom []int) int {
	for a != b {
		for rpoN[a] > rpoN[b] {
			a = idom[a]
		}
		for rpoN[b] > rpoN[a] {
			b = idom[b]
		}
	}
	return a
}

// Ipdom returns the immediate post-dominator of b, or nil when it is the
// virtual exit.
func (d *PostDomTree) Ipdom(b *ir.Block) *ir.Block {
	p := d.ipdom[b.Index]
	if p < 0 || p == d.exit {
		return nil
	}
	return d.f.Blocks[p]
}

// PostDominates reports whether a post-dominates b (reflexively).
func (d *PostDomTree) PostDominates(a, b *ir.Block) bool {
	ai := a.Index
	v := b.Index
	for {
		if v == ai {
			return true
		}
		next := d.ipdom[v]
		if next < 0 || next == v || next == d.exit {
			return v == ai
		}
		v = next
	}
}

// ControlDeps is the control-dependence relation of one function, dense
// by Block.Index: the blocks control dependent on block i's conditional
// branch are deps[off[i]:off[i+1]], in block order. A block that does not
// end in a conditional branch controls nothing.
type ControlDeps struct {
	off  []int32
	deps []*ir.Block
}

// Of returns the blocks control dependent on b's conditional branch, in
// block order.
func (c *ControlDeps) Of(b *ir.Block) []*ir.Block {
	return c.deps[c.off[b.Index]:c.off[b.Index+1]:c.off[b.Index+1]]
}

// ControlDependents returns, for each conditional-branch block, the set of
// blocks control dependent on it: following Ferrante/Ottenstein/Warren, a
// block n is control dependent on branch b when n post-dominates some
// successor of b but does not post-dominate b itself.
//
// Each branch stamps its own post-dominator chain, then walks up from each
// successor until it meets the chain; a counting pass sizes the table and
// a second pass fills it.
func ControlDependents(f *ir.Function, pdom *PostDomTree) *ControlDeps {
	n := len(f.Blocks)
	c := &ControlDeps{off: make([]int32, n+1)}
	// stamp[v] == 2*ep marks v as on the current branch's post-dominator
	// chain, 2*ep+1 as recorded dependent; every walk takes a fresh ep.
	stamp := make([]int32, n)
	ep := int32(0)
	total := 0
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
			ep++
			total += controlled(b, t, pdom, stamp, ep, nil)
		}
		c.off[b.Index+1] = int32(total)
	}
	c.deps = make([]*ir.Block, total)
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
			ep++
			seg := c.deps[c.off[b.Index]:c.off[b.Index+1]]
			controlled(b, t, pdom, stamp, ep, seg)
			slices.SortFunc(seg, func(x, y *ir.Block) int { return x.Index - y.Index })
		}
	}
	return c
}

// controlled counts the blocks control dependent on branch block b (whose
// terminator is t), storing them in dst when it is non-nil.
func controlled(b *ir.Block, t *ir.Instr, pdom *PostDomTree, stamp []int32, ep int32, dst []*ir.Block) int {
	chain, dep := 2*ep, 2*ep+1
	for v := b.Index; ; {
		stamp[v] = chain
		next := pdom.ipdom[v]
		if next < 0 || next == v || next == pdom.exit {
			break
		}
		v = next
	}
	k := 0
	for _, s := range t.Blocks {
		// Walk the post-dominator chain from s up to (but excluding) b's
		// post-dominator set; a node already recorded leads up the same
		// chain as before.
		for m := s; m != nil && stamp[m.Index] != chain; m = pdom.Ipdom(m) {
			if stamp[m.Index] == dep {
				break
			}
			stamp[m.Index] = dep
			if dst != nil {
				dst[k] = m
			}
			k++
		}
	}
	return k
}
