package region

import (
	"testing"

	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/passes"
	"needle/internal/pm"
	"needle/internal/workloads"
)

// TestCharacterizeMatchesReference checks Characterize against the
// implementation it replaced on every workload's inlined hot function and
// on 240 inlined irgen programs in two shapes: the statistics must be
// identical, floating-point averages included.
func TestCharacterizeMatchesReference(t *testing.T) {
	var fs []*ir.Function
	for _, w := range workloads.All() {
		fs = append(fs, w.Function())
	}
	pool := irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}
	for seed := int64(1); seed <= 120; seed++ {
		fs = append(fs, irgen.Generate(seed, irgen.DefaultConfig()).F, irgen.Generate(seed, pool).F)
	}
	for _, f := range fs {
		f, err := passes.InlineAll(f)
		if err != nil {
			t.Fatal(err)
		}
		am := pm.NewManager()
		if got, want := Characterize(am, f), referenceCharacterize(am, f); got != want {
			t.Fatalf("%s: Characterize = %+v, want %+v", f.Name, got, want)
		}
	}
}

// referenceCharacterize and referenceLoadsInSlice are Characterize and
// loadsInSlice as they were before the dense-table rewrite, verbatim but
// for their names and for reading control dependences through
// ControlDeps.Of where the old code indexed a map.

// referenceCharacterize computes the Table I statistics for a function. Dominator,
// post-dominator, and control-dependence facts are served by am (nil for a
// one-shot manager), so callers that already analyzed f pay nothing extra.
func referenceCharacterize(am *pm.Manager, f *ir.Function) ControlFlowStats {
	am = pm.Ensure(am)
	stats := ControlFlowStats{
		BackwardBranches: len(am.BackEdges(f)),
	}

	// Map from register to defining instruction for backward slicing.
	defs := make(map[ir.Reg]*ir.Instr)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDest() {
				defs[in.Dst] = in
			}
		}
	}

	// Exact control dependence via the post-dominator tree
	// (Ferrante/Ottenstein/Warren).
	ctrlDeps := am.ControlDependents(f)

	var sumBranchMem, sumMemBranch int
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		stats.Branches++
		stats.PredicationBits++ // one predicate per if-converted branch
		sumMemBranch += referenceLoadsInSlice(t.Args[0], defs)
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

// referenceLoadsInSlice counts load instructions in the backward data-dependence
// slice of reg (phi operands included, cycles broken with a visited set).
func referenceLoadsInSlice(reg ir.Reg, defs map[ir.Reg]*ir.Instr) int {
	visited := make(map[ir.Reg]bool)
	var walk func(r ir.Reg) int
	walk = func(r ir.Reg) int {
		if visited[r] {
			return 0
		}
		visited[r] = true
		in, ok := defs[r]
		if !ok {
			return 0 // parameter
		}
		n := 0
		if in.Op == ir.OpLoad {
			n++
		}
		for _, a := range in.Args {
			n += walk(a)
		}
		return n
	}
	return walk(reg)
}
