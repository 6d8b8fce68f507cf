// SCCP-driven folding: the transform half of the sparse conditional
// constant propagation analysis. Where the in-place ConstFold only sees
// constants that are syntactically obvious, SCCPFold acts on the full
// optimistic fixpoint — phis that are constant because the other incoming
// edge is provably untaken, and conditional branches whose condition the
// lattice decided.
package passes

import (
	"needle/internal/analysis"
	"needle/internal/ir"
)

// SCCPFold rewrites f using an SCCP fixpoint: every executable
// instruction whose lattice value is a proven constant becomes an OpConst,
// and every conditional branch with a constant condition becomes an
// unconditional branch to the taken target (with the abandoned target's
// phi incomings cleaned up). Blocks SCCP proved non-executable are left
// for SimplifyCFG, which becomes able to drop them once the branches are
// folded. Returns the number of rewrites.
//
// Legality: the lattice evaluator mirrors the interpreter exactly, and a
// potentially-trapping div/rem is never constant (its lattice value is
// bottom unless the divisor is a proven non-zero constant, which cannot
// trap), so no fold can change an observable result or erase a fault.
func SCCPFold(f *ir.Function) int {
	s := analysis.ComputeSCCP(f)
	changed := 0
	for _, b := range f.Blocks {
		if !s.BlockExecutable(b) {
			continue
		}
		hadPhis := false
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				hadPhis = true
			}
			if !in.Op.HasDest() || in.Op == ir.OpConst {
				continue
			}
			v := s.Value(in.Dst)
			if !v.IsConst() {
				continue
			}
			in.Op = ir.OpConst
			in.Type = f.RegType[in.Dst]
			in.Imm = int64(v.Bits)
			in.Args = nil
			in.Blocks = nil
			in.Callee = nil
			changed++
		}
		if hadPhis {
			// Folding a phi into a const breaks the phis-first block layout;
			// stable-partition the remaining phis back to the front. Sound
			// because a const has no operands and only phis move earlier.
			var phis, rest []*ir.Instr
			for _, in := range b.Instrs {
				if in.Op == ir.OpPhi {
					phis = append(phis, in)
				} else {
					rest = append(rest, in)
				}
			}
			if len(phis) > 0 {
				b.Instrs = append(phis, rest...)
			}
		}

		// Fold constant conditional branches.
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		taken, ok := s.ConstBranch(b)
		if !ok {
			continue
		}
		keep, drop := t.Blocks[taken], t.Blocks[1-taken]
		if drop != keep {
			// The abandoned successor loses its edge from b: remove the phi
			// incomings naming b (SimplifyCFG only fixes phis of blocks it
			// drops entirely, and drop may stay reachable another way).
			for _, phi := range drop.Phis() {
				for i := 0; i < len(phi.Blocks); i++ {
					if phi.Blocks[i] == b {
						phi.Blocks = append(phi.Blocks[:i], phi.Blocks[i+1:]...)
						phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
						i--
					}
				}
			}
		}
		t.Op = ir.OpBr
		t.Args = nil
		t.Blocks = []*ir.Block{keep}
		changed++
	}
	if changed > 0 {
		f.Finish()
	}
	return changed
}
