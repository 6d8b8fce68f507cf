// Package passes provides the IR transformations the Needle pipeline runs
// before profiling: aggressive call inlining — the paper's analyses operate
// on "the fully inlined hottest function" (Section II-A), which is what
// reveals the predication and path statistics prior work misses — plus the
// standard cleanups (constant folding, dead-code elimination, CFG
// simplification) that keep frames small for the accelerator.
package passes

import (
	"fmt"

	"needle/internal/ir"
	"needle/internal/pm"
)

// InlineAll clones f with every call (transitively) inlined, up to maxDepth
// nested levels. Functions without calls are returned unchanged. Recursive
// call chains exceeding maxDepth are an error: Needle's offload regions
// cannot contain calls.
func InlineAll(f *ir.Function, maxDepth int) (*ir.Function, error) {
	if maxDepth <= 0 {
		maxDepth = 8
	}
	if !hasCalls(f) {
		return f, nil
	}
	cur := f
	for depth := 0; ; depth++ {
		if depth >= maxDepth {
			return nil, fmt.Errorf("passes: %s still has calls after %d inlining rounds (recursion?)", f.Name, maxDepth)
		}
		next, changed, err := inlineOnce(cur)
		if err != nil {
			return nil, err
		}
		cur = next
		if !changed {
			return cur, nil
		}
	}
}

func hasCalls(f *ir.Function) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				return true
			}
		}
	}
	return false
}

// inlineOnce inlines every direct call site of f (one level) into a fresh
// function.
func inlineOnce(f *ir.Function) (*ir.Function, bool, error) {
	out := &ir.Function{
		Name:    f.Name,
		Params:  append([]ir.Type(nil), f.Params...),
		RegType: append([]ir.Type(nil), f.RegType...),
	}
	newReg := func(t ir.Type) ir.Reg {
		out.RegType = append(out.RegType, t)
		return ir.Reg(len(out.RegType) - 1)
	}

	// Clone the skeleton: every original block maps to a block in out.
	blockMap := make(map[*ir.Block]*ir.Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &ir.Block{Name: b.Name}
		blockMap[b] = nb
		out.Blocks = append(out.Blocks, nb)
	}

	changed := false
	uniq := 0
	// tailMap records, for each cloned caller block, the block holding its
	// terminator after call-site splitting; phi incomings are retargeted to
	// these tails below.
	tailMap := make(map[*ir.Block]*ir.Block, len(f.Blocks))
	for _, b := range f.Blocks {
		cur := blockMap[b]
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				cur.Instrs = append(cur.Instrs, cloneInstr(in, blockMap))
				continue
			}
			changed = true
			uniq++
			callee := in.Callee
			prefix := fmt.Sprintf("%s.in%d.", callee.Name, uniq)

			// Map callee registers into fresh registers of out; parameters
			// map directly to the call arguments.
			regMap := make([]ir.Reg, len(callee.RegType))
			for pi := 0; pi < callee.NumParams(); pi++ {
				regMap[callee.Param(pi)] = in.Args[pi]
			}
			for r := callee.NumParams() + 1; r < len(callee.RegType); r++ {
				regMap[r] = newReg(callee.RegType[r])
			}

			// Clone callee blocks.
			calleeMap := make(map[*ir.Block]*ir.Block, len(callee.Blocks))
			for _, cb := range callee.Blocks {
				nb := &ir.Block{Name: prefix + cb.Name}
				calleeMap[cb] = nb
				out.Blocks = append(out.Blocks, nb)
			}
			// Continuation block receives the rest of the caller block.
			cont := &ir.Block{Name: prefix + "cont"}
			out.Blocks = append(out.Blocks, cont)

			// Jump from the current position into the callee entry.
			cur.Instrs = append(cur.Instrs, &ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{calleeMap[callee.Entry()]}})

			// Clone callee bodies; rets become branches to cont feeding a phi.
			type retSite struct {
				from *ir.Block
				val  ir.Reg
			}
			var rets []retSite
			for _, cb := range callee.Blocks {
				nb := calleeMap[cb]
				for _, ci := range cb.Instrs {
					if ci.Op == ir.OpRet {
						rets = append(rets, retSite{nb, regMap[ci.Args[0]]})
						nb.Instrs = append(nb.Instrs, &ir.Instr{Op: ir.OpBr, Blocks: []*ir.Block{cont}})
						continue
					}
					ni := &ir.Instr{Op: ci.Op, Type: ci.Type, Imm: ci.Imm, Callee: ci.Callee}
					if ci.Op.HasDest() {
						ni.Dst = regMap[ci.Dst]
					}
					for _, a := range ci.Args {
						ni.Args = append(ni.Args, regMap[a])
					}
					for _, t := range ci.Blocks {
						ni.Blocks = append(ni.Blocks, calleeMap[t])
					}
					nb.Instrs = append(nb.Instrs, ni)
				}
			}

			// The call's destination becomes a phi over the return sites (or
			// a copy when there is exactly one).
			if len(rets) == 1 {
				cont.Instrs = append(cont.Instrs, &ir.Instr{
					Op: ir.OpCopy, Type: in.Type, Dst: in.Dst, Args: []ir.Reg{rets[0].val},
				})
			} else {
				phi := &ir.Instr{Op: ir.OpPhi, Type: in.Type, Dst: in.Dst}
				for _, rs := range rets {
					phi.Args = append(phi.Args, rs.val)
					phi.Blocks = append(phi.Blocks, rs.from)
				}
				cont.Instrs = append(cont.Instrs, phi)
			}
			// Subsequent caller instructions continue in cont...
			cur = cont
		}
		// ...and phi incomings that named the original block must now name
		// the block that ends with its terminator. Fix in a post-pass below
		// using tailMap.
		tailMap[blockMap[b]] = cur
	}

	// Retarget phi incoming blocks: an incoming edge from original block B
	// now arrives from B's tail (the last continuation block).
	for _, b := range out.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpPhi {
				continue
			}
			for i, from := range in.Blocks {
				if tail, ok := tailMap[from]; ok && tail != from {
					in.Blocks[i] = tail
				}
			}
		}
	}
	out.Finish()
	if err := ir.Verify(out); err != nil {
		return nil, false, fmt.Errorf("passes: inlining %s produced invalid IR: %w", f.Name, err)
	}
	return out, changed, nil
}

func cloneInstr(in *ir.Instr, blockMap map[*ir.Block]*ir.Block) *ir.Instr {
	ni := &ir.Instr{Op: in.Op, Type: in.Type, Dst: in.Dst, Imm: in.Imm, Callee: in.Callee}
	ni.Args = append(ni.Args, in.Args...)
	for _, b := range in.Blocks {
		ni.Blocks = append(ni.Blocks, blockMap[b])
	}
	return ni
}

// DeadCodeElim removes instructions whose results are never used and that
// have no side effects (stores, calls, and terminators are kept; so are
// div/rem, which can trap, and loads, which can fault out of bounds). It
// mutates f in place and returns the number of instructions removed.
func DeadCodeElim(f *ir.Function) int {
	used := make([]bool, len(f.RegType))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.Uses(func(r ir.Reg) { used[r] = true })
		}
	}
	removed := 0
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				dead := in.Op.HasDest() && in.Op != ir.OpCall && in.Op != ir.OpLoad &&
					in.Op != ir.OpDiv && in.Op != ir.OpRem && !used[in.Dst]
				if dead {
					removed++
					changed = true
					// Operand uses may now be dead too; recompute next round.
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = append([]*ir.Instr(nil), kept...)
		}
		if changed {
			for i := range used {
				used[i] = false
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					in.Uses(func(r ir.Reg) { used[r] = true })
				}
			}
		}
	}
	f.Finish()
	return removed
}

// ConstFold evaluates instructions whose operands are all constants,
// rewriting them into OpConst. It mutates f in place and returns the number
// of folded instructions. Division by a zero constant is left untouched
// (the interpreter reports it at run time).
func ConstFold(f *ir.Function) int {
	konst := make(map[ir.Reg]uint64)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpConst {
				konst[in.Dst] = uint64(in.Imm)
			}
		}
	}
	folded := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !foldable(in.Op) {
				continue
			}
			var vals [2]uint64
			all := true
			for i, a := range in.Args {
				v, ok := konst[a]
				if !ok {
					all = false
					break
				}
				vals[i] = v
			}
			if !all {
				continue
			}
			v, ok := ir.EvalPure(in.Op, in.Imm, vals[0], vals[1], 0)
			if !ok {
				continue
			}
			in.Op = ir.OpConst
			in.Args = nil
			in.Imm = int64(v)
			konst[in.Dst] = v
			folded++
		}
	}
	return folded
}

// foldable reports whether ConstFold rewrites op; every such opcode takes
// at most two operands.
func foldable(op ir.Op) bool {
	switch op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE,
		ir.OpCmpGT, ir.OpCmpGE, ir.OpFAdd, ir.OpFSub, ir.OpFMul,
		ir.OpSIToFP, ir.OpCopy:
		return true
	}
	return false
}

// SimplifyCFG merges straight-line block chains: a block whose single
// successor has it as its single predecessor absorbs that successor
// (provided the successor carries no phis). It also drops unreachable
// blocks. Returns the number of blocks eliminated.
func SimplifyCFG(f *ir.Function) int {
	removedTotal := 0
	for {
		f.Finish()
		removed := 0

		// Drop unreachable blocks.
		reach := map[*ir.Block]bool{}
		var stack []*ir.Block
		if e := f.Entry(); e != nil {
			stack = append(stack, e)
			reach[e] = true
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range b.Succs() {
				if !reach[s] {
					reach[s] = true
					stack = append(stack, s)
				}
			}
		}
		var kept []*ir.Block
		for _, b := range f.Blocks {
			if reach[b] {
				kept = append(kept, b)
			} else {
				removed++
				// Phi edges from dropped blocks must disappear too.
				for _, s := range b.Succs() {
					for _, phi := range s.Phis() {
						for i := 0; i < len(phi.Blocks); i++ {
							if phi.Blocks[i] == b {
								phi.Blocks = append(phi.Blocks[:i], phi.Blocks[i+1:]...)
								phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
								i--
							}
						}
					}
				}
			}
		}
		f.Blocks = kept
		f.Finish()

		// Merge b -> s where b's only successor is s and s's only
		// predecessor is b.
		for _, b := range f.Blocks {
			t := b.Term()
			if t == nil || t.Op != ir.OpBr {
				continue
			}
			s := t.Blocks[0]
			if s == b || len(s.Preds) != 1 || len(s.Phis()) > 0 || s == f.Entry() {
				continue
			}
			// Absorb s.
			b.Instrs = append(b.Instrs[:len(b.Instrs)-1], s.Instrs...)
			// Phi incomings naming s must now name b.
			for _, nxt := range s.Succs() {
				for _, phi := range nxt.Phis() {
					for i, from := range phi.Blocks {
						if from == s {
							phi.Blocks[i] = b
						}
					}
				}
			}
			var kept2 []*ir.Block
			for _, blk := range f.Blocks {
				if blk != s {
					kept2 = append(kept2, blk)
				}
			}
			f.Blocks = kept2
			removed++
			break // CFG changed; restart scan
		}

		removedTotal += removed
		if removed == 0 {
			return removedTotal
		}
	}
}

// InlinePass wraps InlineAll as a managed pass. Inlining rebuilds the
// function, so nothing of the old function's analyses carries over.
func InlinePass(maxDepth int) pm.Pass {
	return pm.Pass{
		Name: "inline",
		Run: func(f *ir.Function) (*ir.Function, bool, error) {
			out, err := InlineAll(f, maxDepth)
			if err != nil {
				return f, false, err
			}
			return out, out != f, nil
		},
		Preserves: pm.PreserveNone,
	}
}

// ConstFoldPass wraps ConstFold. Folding rewrites instructions in place
// without touching the block graph or def locations, so every CFG-shape
// analysis and the def-use map stay valid.
func ConstFoldPass() pm.Pass {
	return pm.Pass{
		Name: "constfold",
		Run: func(f *ir.Function) (*ir.Function, bool, error) {
			return f, ConstFold(f) > 0, nil
		},
		Preserves: pm.PreserveCFG().Plus(pm.KindDefUse),
	}
}

// CSEPass wraps LocalCSE. Eliminating duplicates removes instructions
// (invalidating liveness and def-use) but never blocks.
func CSEPass() pm.Pass {
	return pm.Pass{
		Name: "cse",
		Run: func(f *ir.Function) (*ir.Function, bool, error) {
			return f, LocalCSE(f) > 0, nil
		},
		Preserves: pm.PreserveCFG(),
	}
}

// DCEPass wraps DeadCodeElim. Like CSE, it removes instructions but keeps
// the block graph intact.
func DCEPass() pm.Pass {
	return pm.Pass{
		Name: "dce",
		Run: func(f *ir.Function) (*ir.Function, bool, error) {
			return f, DeadCodeElim(f) > 0, nil
		},
		Preserves: pm.PreserveCFG(),
	}
}

// SimplifyCFGPass wraps SimplifyCFG, which merges and drops blocks and so
// preserves nothing.
func SimplifyCFGPass() pm.Pass {
	return pm.Pass{
		Name: "simplifycfg",
		Run: func(f *ir.Function) (*ir.Function, bool, error) {
			return f, SimplifyCFG(f) > 0, nil
		},
		Preserves: pm.PreserveNone,
	}
}

// CleanupPasses returns the standard cleanup pipeline in canonical order:
// constant folding, local CSE, DCE, and CFG simplification.
func CleanupPasses() []pm.Pass {
	return []pm.Pass{ConstFoldPass(), CSEPass(), DCEPass(), SimplifyCFGPass()}
}

// Optimize runs the standard cleanup pipeline to a fixed point through a
// pass manager bound to am (nil for a one-shot manager), so cached analyses
// of f are invalidated exactly as each transform declares.
func Optimize(am *pm.Manager, f *ir.Function) {
	mgr := pm.NewPassManager(am).Add(CleanupPasses()...)
	// The cleanup passes mutate in place and cannot fail.
	if _, err := mgr.RunFixedPoint(f); err != nil {
		panic(fmt.Sprintf("passes: cleanup pipeline failed: %v", err))
	}
}

// LocalCSE performs per-block common-subexpression elimination: pure
// instructions (no loads, stores, calls, or phis) computing the same
// (opcode, operands, immediate) as an earlier instruction in the same block
// are removed and their uses rewritten to the earlier result. Because the
// canonical definition precedes the duplicate in the same block, dominance
// of every rewritten use is preserved. Returns the number of instructions
// eliminated.
func LocalCSE(f *ir.Function) int {
	type key struct {
		op   ir.Op
		typ  ir.Type
		imm  int64
		a    [3]ir.Reg
		argc int
	}
	pure := func(op ir.Op) bool {
		switch op {
		case ir.OpLoad, ir.OpStore, ir.OpCall, ir.OpPhi,
			ir.OpBr, ir.OpCondBr, ir.OpRet:
			return false
		case ir.OpDiv, ir.OpRem:
			return false // can trap; keep execution counts identical
		}
		return true
	}

	alias := make(map[ir.Reg]ir.Reg)
	resolve := func(r ir.Reg) ir.Reg {
		for {
			n, ok := alias[r]
			if !ok {
				return r
			}
			r = n
		}
	}

	removed := 0
	for _, b := range f.Blocks {
		seen := make(map[key]ir.Reg)
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			// Rewrite operands through the alias map first.
			for i, a := range in.Args {
				in.Args[i] = resolve(a)
			}
			if !pure(in.Op) || !in.Op.HasDest() || len(in.Args) > 3 {
				kept = append(kept, in)
				continue
			}
			k := key{op: in.Op, typ: in.Type, imm: in.Imm, argc: len(in.Args)}
			copy(k.a[:], in.Args)
			if canon, ok := seen[k]; ok {
				alias[in.Dst] = canon
				removed++
				continue
			}
			seen[k] = in.Dst
			kept = append(kept, in)
		}
		b.Instrs = append([]*ir.Instr(nil), kept...)
	}
	if removed > 0 {
		// Rewrite any remaining uses (later blocks) through the alias map.
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				for i, a := range in.Args {
					in.Args[i] = resolve(a)
				}
			}
		}
	}
	f.Finish()
	return removed
}
