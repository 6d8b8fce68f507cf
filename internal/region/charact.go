package region

import (
	"needle/internal/ir"
	"needle/internal/pm"
)

// ControlFlowStats is the static characterization of one (hot) function
// reported in Table I.
type ControlFlowStats struct {
	// AvgBranchMem is the average number of memory operations
	// control-dependent on a conditional branch (the Branch=>Mem rows).
	AvgBranchMem float64
	// AvgMemBranch is the average number of memory operations feeding a
	// conditional branch's condition through data dependences (Mem=>Branch).
	AvgMemBranch float64
	// PredicationBits is the number of conditional branches that full
	// if-conversion of the function would predicate (Max. predication).
	PredicationBits int
	// BackwardBranches is the number of loop back edges (Loops row).
	BackwardBranches int
	// Branches is the total number of conditional branches.
	Branches int
}

// Characterize computes the Table I statistics for a function. Dominator,
// post-dominator, and control-dependence facts are served by am (nil for a
// one-shot manager), so callers that already analyzed f pay nothing extra.
func Characterize(am *pm.Manager, f *ir.Function) ControlFlowStats {
	am = pm.Ensure(am)
	stats := ControlFlowStats{
		BackwardBranches: len(am.BackEdges(f)),
	}

	// Register -> defining instruction, dense over the register space, for
	// backward slicing.
	defs := make([]*ir.Instr, len(f.RegType))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDest() && int(in.Dst) < len(defs) {
				defs[in.Dst] = in
			}
		}
	}

	// Exact control dependence via the post-dominator tree
	// (Ferrante/Ottenstein/Warren).
	ctrlDeps := am.ControlDependents(f)

	sl := slicer{defs: defs, seen: make([]int32, len(defs))}
	var sumBranchMem, sumMemBranch int
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		stats.Branches++
		stats.PredicationBits++ // one predicate per if-converted branch
		sumMemBranch += sl.loads(t.Args[0])
		for _, dep := range ctrlDeps.Of(b) {
			for _, in := range dep.Instrs {
				if in.Op.IsMemory() {
					sumBranchMem++
				}
			}
		}
	}
	if stats.Branches > 0 {
		stats.AvgBranchMem = float64(sumBranchMem) / float64(stats.Branches)
		stats.AvgMemBranch = float64(sumMemBranch) / float64(stats.Branches)
	}
	return stats
}

// slicer walks backward data-dependence slices over one function's dense
// def table. seen[r] == epoch marks r as visited by the current walk, so
// the marks need no clearing between walks; the stack is reused too.
type slicer struct {
	defs  []*ir.Instr
	seen  []int32
	epoch int32
	stack []ir.Reg
}

// loads counts load instructions in the backward data-dependence slice of
// reg (phi operands included, each register visited once).
func (s *slicer) loads(reg ir.Reg) int {
	s.epoch++
	n := 0
	s.stack = append(s.stack[:0], reg)
	for len(s.stack) > 0 {
		r := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if r < 0 || int(r) >= len(s.defs) || s.seen[r] == s.epoch {
			continue
		}
		s.seen[r] = s.epoch
		in := s.defs[r]
		if in == nil {
			continue // parameter
		}
		if in.Op == ir.OpLoad {
			n++
		}
		s.stack = append(s.stack, in.Args...)
	}
	return n
}
