// Package analysis provides the control-flow and dataflow analyses the
// Needle pipeline builds on: reverse postorder, dominator trees, natural
// loop detection, liveness, and an SSA dominance verifier.
package analysis

import (
	"fmt"
	"math/bits"

	"needle/internal/ir"
)

// ReversePostorder returns the blocks of f reachable from the entry in
// reverse postorder. Unreachable blocks are omitted.
func ReversePostorder(f *ir.Function) []*ir.Block {
	n := len(f.Blocks)
	return reversePostorder(f, make([]int, 3*n), make([]*ir.Block, n))
}

// reversePostorder is ReversePostorder over caller-sized tables. scratch
// holds 3·len(f.Blocks) ints: visit marks, then the depth-first stack's
// nodes and next-successor cursors. out has a slot per block; the
// postorder is written into it from the back, so its tail is the reverse
// postorder with no reversal pass, and that tail is returned.
func reversePostorder(f *ir.Function, scratch []int, out []*ir.Block) []*ir.Block {
	n := len(f.Blocks)
	entry := f.Entry()
	if entry == nil {
		return nil
	}
	seen, stack, next := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	clear(seen)
	k := n // out[k:] is the postorder so far, last-finished first
	stack[0], next[0], seen[entry.Index] = entry.Index, 0, 1
	for sp := 0; sp >= 0; {
		b := f.Blocks[stack[sp]]
		if succs := b.Succs(); next[sp] < len(succs) {
			s := succs[next[sp]]
			next[sp]++
			if seen[s.Index] == 0 {
				seen[s.Index] = 1
				sp++
				stack[sp], next[sp] = s.Index, 0
			}
			continue
		}
		k--
		out[k] = b
		sp--
	}
	return out[k:n:n]
}

// DomTree holds immediate-dominator information for a function.
type DomTree struct {
	f    *ir.Function
	idom []*ir.Block // indexed by block index; entry's idom is itself
	rpo  []*ir.Block
	rpoN []int // rpo number per block index, -1 if unreachable
}

// Dominators computes the dominator tree using the Cooper-Harvey-Kennedy
// iterative algorithm over reverse postorder.
func Dominators(f *ir.Function) *DomTree {
	n := len(f.Blocks)
	// Two arenas: rpoN (kept by the tree) then the postorder walk's
	// scratch; the reverse postorder then idom.
	arena := make([]int, 4*n)
	rpoN := arena[:n:n]
	blocks := make([]*ir.Block, 2*n)
	rpo := reversePostorder(f, arena[n:], blocks[:n:n])
	idom := blocks[n:]
	for i := range rpoN {
		rpoN[i] = -1
	}
	for i, b := range rpo {
		rpoN[b.Index] = i
	}
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

// Idom returns the immediate dominator of b, or nil for the entry block and
// unreachable blocks.
func (d *DomTree) Idom(b *ir.Block) *ir.Block {
	id := d.idom[b.Index]
	if id == b {
		return nil
	}
	return id
}

// Dominates reports whether a dominates b (reflexively).
func (d *DomTree) Dominates(a, b *ir.Block) bool {
	if d.rpoN[b.Index] < 0 {
		return false // unreachable blocks are dominated by nothing
	}
	for {
		if a == b {
			return true
		}
		next := d.idom[b.Index]
		if next == nil || next == b {
			return false
		}
		b = next
	}
}

// RPO returns the reverse postorder computed alongside the tree.
func (d *DomTree) RPO() []*ir.Block { return d.rpo }

// Reachable reports whether the block is reachable from the entry.
func (d *DomTree) Reachable(b *ir.Block) bool { return d.rpoN[b.Index] >= 0 }

// Edge is a directed CFG edge.
type Edge struct {
	From, To *ir.Block
}

// BackEdges returns the back edges of f: edges u->v where v dominates u.
// These are exactly the edges the Ball-Larus transformation removes, and the
// "backward branches" Table I counts.
//
// A counting pass sizes the result, so it is one allocation (none when f
// has no back edge).
func BackEdges(f *ir.Function, dom *DomTree) []Edge {
	n := 0
	for _, b := range dom.RPO() {
		for _, s := range b.Succs() {
			if dom.Dominates(s, b) {
				n++
			}
		}
	}
	if n == 0 {
		return nil
	}
	edges := make([]Edge, 0, n)
	for _, b := range dom.RPO() {
		for _, s := range b.Succs() {
			if dom.Dominates(s, b) {
				edges = append(edges, Edge{From: b, To: s})
			}
		}
	}
	return edges
}

// Loop is a natural loop: a header plus the set of blocks that can reach a
// back edge into the header without leaving the loop.
type Loop struct {
	Header *ir.Block
	in     []bool // membership by Block.Index
}

// Contains reports whether the loop body includes b.
func (l *Loop) Contains(b *ir.Block) bool { return b.Index < len(l.in) && l.in[b.Index] }

// NaturalLoops finds all natural loops of f, merging loops that share a
// header. Loops are returned in the order their headers' first back edges
// appear in BackEdges. A first pass over the back edges numbers the
// headers; the loops, their pointers and one membership table per loop
// are then sized by that count, and a second pass fills the tables.
func NaturalLoops(f *ir.Function, dom *DomTree) []*Loop {
	n := len(f.Blocks)
	// loopOf[h] numbers the loop headed by block h (-1: none); then the
	// predecessor walk's stack, which holds each block at most once.
	ints := make([]int32, 2*n)
	loopOf, stack := ints[:n:n], ints[n:n:2*n]
	for i := range loopOf {
		loopOf[i] = -1
	}
	k := 0
	for _, b := range dom.RPO() {
		for _, s := range b.Succs() {
			if loopOf[s.Index] < 0 && dom.Dominates(s, b) {
				loopOf[s.Index] = int32(k)
				k++
			}
		}
	}
	loops := make([]Loop, k)
	out := make([]*Loop, k)
	member := make([]bool, k*n)
	for i := range loops {
		loops[i].in = member[i*n : (i+1)*n : (i+1)*n]
		out[i] = &loops[i]
	}
	for _, b := range dom.RPO() {
		for _, s := range b.Succs() {
			if !dom.Dominates(s, b) {
				continue
			}
			l := &loops[loopOf[s.Index]]
			if l.Header == nil {
				l.Header = s
				l.in[s.Index] = true
			}
			// Walk predecessors from the back-edge source until the
			// header, marking each block as it is pushed.
			if l.in[b.Index] {
				continue
			}
			l.in[b.Index] = true
			stack = append(stack[:0], int32(b.Index))
			for len(stack) > 0 {
				v := f.Blocks[stack[len(stack)-1]]
				stack = stack[:len(stack)-1]
				for _, p := range v.Preds {
					if !l.in[p.Index] {
						l.in[p.Index] = true
						stack = append(stack, int32(p.Index))
					}
				}
			}
		}
	}
	return out
}

// DefBlock returns, for each register, the block defining it (nil for
// parameters and undefined registers). Indexed by register number.
func DefBlock(f *ir.Function) []*ir.Block {
	defs := make([]*ir.Block, len(f.RegType))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDest() {
				defs[in.Dst] = b
			}
		}
	}
	return defs
}

// RegSet is a dense register bitset, indexed by ir.Reg. Sets produced by one
// analysis share a word width, so whole-set operations are straight word
// loops with no bounds reconciliation.
type RegSet []uint64

// NewRegSet returns an empty set wide enough for a function with numRegs
// virtual registers (registers are 1-based, so the set spans [0, numRegs]).
func NewRegSet(numRegs int) RegSet { return make(RegSet, (numRegs+64)>>6) }

// Reset returns an empty set wide enough for numRegs registers, reusing
// s's storage when it has room.
func (s RegSet) Reset(numRegs int) RegSet {
	w := (numRegs + 64) >> 6
	if cap(s) < w {
		return make(RegSet, w)
	}
	s = s[:w]
	clear(s)
	return s
}

// Len returns the number of registers in the set.
func (s RegSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Has reports whether r is in the set.
func (s RegSet) Has(r ir.Reg) bool {
	i := uint(r) >> 6
	return int(i) < len(s) && s[i]&(1<<(uint(r)&63)) != 0
}

// Add inserts r into the set.
func (s RegSet) Add(r ir.Reg) {
	s[uint(r)>>6] |= 1 << (uint(r) & 63)
}

// Regs returns the set's members in increasing order.
func (s RegSet) Regs() []ir.Reg {
	out := make([]ir.Reg, 0, s.Len())
	s.ForEach(func(r ir.Reg) { out = append(out, r) })
	return out
}

// ForEach calls fn for every register in the set, in increasing order.
func (s RegSet) ForEach(fn func(ir.Reg)) {
	for i, w := range s {
		for w != 0 {
			fn(ir.Reg(i<<6 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// Liveness holds per-block live-in/live-out register sets.
type Liveness struct {
	In  []RegSet // indexed by block index
	Out []RegSet
}

// ComputeLiveness runs backward dataflow liveness over the function.
// Phi semantics: a phi's operand for predecessor P is live-out of P (not
// live-in of the phi's block); the phi's destination is defined at the top
// of its block.
//
// The transfer function is evaluated on register bitsets — the fixpoint
// loop is pure word arithmetic (out |= in[succ]; in = use | (out &^ def)),
// which keeps the pass linear-ish in practice where the old map-based
// version paid a hash probe per register per round. The registers each
// block supplies to its successors' phis sit in one table indexed by the
// supplying block, sized by a counting pass.
func ComputeLiveness(f *ir.Function) *Liveness {
	n := len(f.Blocks)
	words := (f.NumRegs() + 64) >> 6 // registers are 1-based; bit 0 unused
	// In, Out, use and def, each n sets of words. use[b]: registers read in
	// b before any redefinition, excluding phi operands (attributed to
	// predecessors). def[b]: registers defined in b, including phi
	// destinations.
	arena := make([]uint64, 4*n*words)
	sets := make([]RegSet, 4*n)
	for i := range sets {
		sets[i] = RegSet(arena[i*words : (i+1)*words : (i+1)*words])
	}
	lv := &Liveness{In: sets[:n:n], Out: sets[n : 2*n : 2*n]}
	use, def := sets[2*n:3*n], sets[3*n:]

	// phiUse[phiOff[p]:phiOff[p+1]]: the registers predecessor p must
	// supply to its successors' phis, each with the successor it feeds.
	// Counted into phiOff[p+2], summed, then filled through phiOff[p+1].
	phiOff := make([]int32, n+2)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				for _, from := range in.Blocks {
					phiOff[from.Index+2]++
				}
			}
		}
	}
	for i := 2; i < len(phiOff); i++ {
		phiOff[i] += phiOff[i-1]
	}
	phiUse := make([]phiSupply, phiOff[n+1])
	for _, b := range f.Blocks {
		use, def := use[b.Index], def[b.Index]
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				for i, from := range in.Blocks {
					phiUse[phiOff[from.Index+1]] = phiSupply{to: int32(b.Index), reg: in.Args[i]}
					phiOff[from.Index+1]++
				}
				def.Add(in.Dst)
				continue
			}
			for _, r := range in.Args {
				if r != ir.NoReg && !def.Has(r) {
					use.Add(r)
				}
			}
			if in.Op.HasDest() {
				def.Add(in.Dst)
			}
		}
	}

	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := lv.Out[b.Index]
			supplies := phiUse[phiOff[b.Index]:phiOff[b.Index+1]]
			for _, s := range b.Succs() {
				for w, v := range lv.In[s.Index] {
					if v&^out[w] != 0 {
						out[w] |= v
						changed = true
					}
				}
				for _, ps := range supplies {
					if int(ps.to) == s.Index && !out.Has(ps.reg) {
						out.Add(ps.reg)
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

// phiSupply is one phi operand a predecessor supplies: the register, and
// the index of the successor block whose phi reads it.
type phiSupply struct {
	to  int32
	reg ir.Reg
}

// VerifySSA checks the dominance property: every non-phi use of a register
// is dominated by its definition, and every phi operand's definition
// dominates the corresponding predecessor's exit. Parameters dominate
// everything.
func VerifySSA(f *ir.Function) error {
	dom := Dominators(f)
	defs := DefBlock(f)
	defPos := make(map[ir.Reg]int) // instruction index within def block
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Op.HasDest() {
				defPos[in.Dst] = i
			}
		}
	}
	isParam := func(r ir.Reg) bool { return int(r) <= f.NumParams() }

	for _, b := range f.Blocks {
		if !dom.Reachable(b) {
			continue
		}
		for i, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				for k, from := range in.Blocks {
					r := in.Args[k]
					if isParam(r) {
						continue
					}
					db := defs[r]
					if db == nil || !dom.Dominates(db, from) {
						return fmt.Errorf("analysis: %s.%s: phi operand %s (from %s) not dominated by its definition",
							f.Name, b.Name, r, from.Name)
					}
				}
				continue
			}
			var err error
			in.Uses(func(r ir.Reg) {
				if err != nil || isParam(r) {
					return
				}
				db := defs[r]
				if db == nil {
					err = fmt.Errorf("analysis: %s.%s: %s used but never defined", f.Name, b.Name, r)
					return
				}
				if db == b {
					if defPos[r] >= i {
						err = fmt.Errorf("analysis: %s.%s: %s used before its definition in the same block", f.Name, b.Name, r)
					}
					return
				}
				if !dom.Dominates(db, b) {
					err = fmt.Errorf("analysis: %s.%s: use of %s not dominated by its definition in %s", f.Name, b.Name, r, db.Name)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
