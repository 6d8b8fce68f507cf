package frame

import (
	"fmt"

	"needle/internal/analysis"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/region"
)

// referenceBuild is Build as it was before the dense-table rewrite, kept
// as the oracle dense_test.go checks Build against. It is verbatim but for
// its name and one adaptation: control dependences are read through
// ControlDeps.Of in block order, where the old code ranged over a map.
func referenceBuild(am *pm.Manager, r *region.Region, opts Options) (*Frame, error) {
	am = pm.Ensure(am)
	predicated := r.Kind == region.KindHyperblock
	if r.Kind != region.KindPath && r.Kind != region.KindBraid && !predicated {
		return nil, fmt.Errorf("frame: cannot frame a %s region", r.Kind)
	}
	if predicated {
		// Non-speculative execution: per-op predication, conservative
		// memory ordering, no undo bookkeeping.
		opts.Ordering = MemConservative
		opts.UndoOpsPerStore = -1
	}
	for _, blk := range r.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpCall {
				return nil, fmt.Errorf("frame: region in %s contains a call; inline with passes.InlineAll first", r.F.Name)
			}
		}
	}
	if opts.UndoOpsPerStore == 0 {
		opts.UndoOpsPerStore = 2
	}
	if opts.UndoOpsPerStore < 0 {
		opts.UndoOpsPerStore = 0
	}
	fr := &Frame{Region: r, opts: opts}

	numRegs := r.F.NumRegs()
	liveIn, liveOut := r.LiveValues(am)
	// Entry phis become frame arguments: their destinations join the
	// live-in set and their incoming operands (already counted live-in by
	// the region analysis) are what the host marshals.
	seen := analysis.NewRegSet(numRegs)
	for _, reg := range liveIn {
		if !seen.Has(reg) {
			seen.Add(reg)
			fr.LiveIn = append(fr.LiveIn, reg)
		}
	}
	for _, phi := range r.Entry.Phis() {
		if !seen.Has(phi.Dst) {
			seen.Add(phi.Dst)
			fr.LiveIn = append(fr.LiveIn, phi.Dst)
		}
	}
	fr.LiveOut = liveOut

	// Linearize the region into dataflow ops. Sizing the op list and the
	// def map up front (region instructions plus undo-log headroom) keeps
	// the emit loop from repeatedly regrowing both.
	nInstr, nStore, nLoad, nArgs := 0, 0, 0, 0
	for _, blk := range r.Blocks {
		nInstr += len(blk.Instrs)
		for _, in := range blk.Instrs {
			nArgs += len(in.Args)
			switch in.Op {
			case ir.OpStore:
				nStore++
			case ir.OpLoad:
				nLoad++
			}
		}
	}
	fr.Ops = make([]Op, 0, nInstr+nStore*opts.UndoOpsPerStore+8)
	// Register -> producing op index, dense over the function's register
	// space for the emit loop (every use probes it); the exported map view
	// is materialized once at the end.
	defIdx := make([]int32, numRegs+1)
	for i := range defIdx {
		defIdx[i] = -1
	}
	lastStore := -1
	var loadsSinceStore []int
	lastGuard := -1

	// Static memory disambiguation for the conservative ordering: two
	// accesses provably touch different words when their addresses are the
	// same base register plus different constant offsets (or two different
	// constants). Symbolic addresses are recovered by walking Add/Const
	// chains in the region.
	addrOf := buildAddrMap(r)
	mayAlias := func(a, b ir.Reg) bool {
		ka, oka := addrOf.get(a)
		kb, okb := addrOf.get(b)
		if !oka || !okb {
			return true
		}
		if ka.base != kb.base {
			return true // different bases: unknown relation
		}
		return ka.off == kb.off
	}

	// For predicated frames, each op depends on the predicates of the
	// branches its block is control dependent on — not on every preceding
	// branch (dataflow predication resolves in parallel).
	var ctrlOf map[*ir.Block][]*ir.Block // block -> controlling branch blocks
	branchOpIdx := make(map[*ir.Block]int)
	if predicated {
		ctrlOf = make(map[*ir.Block][]*ir.Block)
		cd := am.ControlDependents(r.F)
		for _, br := range r.F.Blocks {
			for _, dep := range cd.Of(br) {
				ctrlOf[dep] = append(ctrlOf[dep], br)
			}
		}
	}

	// Every op's Deps is a window of one arena, sized from a bound on what
	// the ops can add so that it never regrows: every use; one guard
	// dependence per op under GuardsSerialize, or one per controlling
	// branch in a predicated frame; and under conservative ordering one
	// store dependence per load or store, plus each load once more for the
	// store that follows it.
	bound := nArgs
	if predicated {
		for _, blk := range r.Blocks {
			bound += len(ctrlOf[blk]) * len(blk.Instrs)
		}
	} else if opts.Placement == GuardsSerialize {
		bound += nInstr
	}
	if opts.Ordering == MemConservative {
		bound += nStore + 2*nLoad
	}
	arena := make([]int, 0, bound)
	start := 0 // the window of the op being emitted is arena[start:]
	addDep := func(idx int) {
		for _, d := range arena[start:] {
			if d == idx {
				return
			}
		}
		arena = append(arena, idx)
	}

	emit := func(op Op, in *ir.Instr) int {
		// Register dependences.
		in.Uses(func(reg ir.Reg) {
			if idx := defIdx[reg]; idx >= 0 {
				addDep(int(idx))
			}
		})
		if predicated {
			for _, br := range ctrlOf[op.Block] {
				if idx, ok := branchOpIdx[br]; ok {
					addDep(idx)
				}
			}
		} else if opts.Placement == GuardsSerialize && lastGuard >= 0 && !op.Guard {
			addDep(lastGuard)
		}
		// Capping the window makes an append to one op's Deps copy instead
		// of overwriting the next op's.
		if end := len(arena); end > start {
			op.Deps = arena[start:end:end]
			start = end
		}
		fr.Ops = append(fr.Ops, op)
		idx := len(fr.Ops) - 1
		if in.Op.HasDest() {
			defIdx[in.Dst] = int32(idx)
		}
		return idx
	}

	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpPhi:
				if b == r.Entry {
					continue // frame argument
				}
				if r.Kind == region.KindHyperblock {
					// Predicated merges need a selection operation.
					fr.Selects++
					emit(Op{Instr: in, Block: b, Select: true}, in)
					continue
				}
				if r.Kind == region.KindPath {
					// Single flow of control: the phi resolves statically to
					// the value arriving along the path; it costs nothing.
					fr.Cancelled++
					// Forward the producing op so consumers depend on it.
					if prev := pathPhiIncoming(r, b, in); prev != ir.NoReg {
						if idx := defIdx[prev]; idx >= 0 {
							defIdx[in.Dst] = idx
						}
					}
					continue
				}
				// Braid: the merge needs a hardware selection operation.
				fr.Selects++
				emit(Op{Instr: in, Block: b, Select: true}, in)
			case ir.OpCondBr:
				if predicated {
					fr.Predicates++
				} else {
					fr.Guards++
				}
				idx := emit(Op{Instr: in, Block: b, Guard: !predicated}, in)
				lastGuard = idx
				if predicated {
					branchOpIdx[b] = idx
				}
			case ir.OpBr, ir.OpRet:
				// Control transfers disappear inside the frame.
			case ir.OpStore:
				fr.Stores++
				fr.UndoOps += opts.UndoOpsPerStore
				op := Op{Instr: in, Block: b}
				if opts.Ordering == MemConservative {
					if lastStore >= 0 && mayAlias(in.Args[0], fr.Ops[lastStore].Instr.Args[0]) {
						addDep(lastStore)
					}
					for _, l := range loadsSinceStore {
						if mayAlias(in.Args[0], fr.Ops[l].Instr.Args[0]) {
							addDep(l)
						}
					}
				}
				idx := emit(op, in)
				lastStore = idx
				loadsSinceStore = loadsSinceStore[:0]
			case ir.OpLoad:
				op := Op{Instr: in, Block: b}
				if opts.Ordering == MemConservative && lastStore >= 0 &&
					mayAlias(in.Args[0], fr.Ops[lastStore].Instr.Args[0]) {
					addDep(lastStore)
				}
				idx := emit(op, in)
				loadsSinceStore = append(loadsSinceStore, idx)
			default:
				emit(Op{Instr: in, Block: b}, in)
			}
		}
	}

	fr.Def = make(map[ir.Reg]int, nInstr)
	for reg, idx := range defIdx {
		if idx >= 0 {
			fr.Def[ir.Reg(reg)] = int(idx)
		}
	}

	// Loop-carried recurrences: entry phis whose incoming value is defined
	// inside the region (arriving over a back edge from a region block).
	defsIn := analysis.NewRegSet(numRegs)
	for _, blk := range r.Blocks {
		for _, in := range blk.Instrs {
			if in.Op.HasDest() {
				defsIn.Add(in.Dst)
			}
		}
	}
	for _, phi := range r.Entry.Phis() {
		for _, a := range phi.Args {
			if defsIn.Has(a) {
				fr.Carried = append(fr.Carried, CarriedPair{Phi: phi.Dst, Next: a})
			}
		}
	}

	// Memory speculation accounting: inside an atomic frame every memory op
	// in a block common to all constituent paths is hoisted above the
	// guards and becomes control independent. Predicated hyperblocks hoist
	// nothing.
	if predicated {
		fr.HoistedMemOps = 0
	} else if r.Kind == region.KindPath {
		fr.HoistedMemOps = r.NumMemOps()
	} else {
		fr.HoistedMemOps = r.NumMemOps() - braidDependentMemOps(r)
	}
	return fr, nil
}
