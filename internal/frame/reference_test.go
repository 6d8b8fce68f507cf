package frame

import (
	"fmt"

	"needle/internal/analysis"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/region"
)

// referenceBuild is Build as it was before the frame's tables moved into a
// reusable Scratch, kept as the oracle dense_test.go checks Build against,
// with the two helpers it called. It is verbatim but for its names and
// three adaptations: it reads the region's live values through
// LiveSets, it returns the register-to-op map the Frame no longer carries
// instead of storing it, and it fills each carried pair's NextOp from that
// map.
// referenceBuild constructs the offload unit for a region. Path and braid regions
// become speculative software frames. Hyperblock regions become the
// non-speculative predicated configuration of Figure 2's middle column:
// branches turn into predicate computations every subsequent operation
// depends on, memory stays conservatively ordered, and there is no undo
// log — the design Needle's software speculation is compared against.
// Superblocks have multiple exits with a single flow of control and cannot
// be framed. Liveness and control-dependence facts are served by am (nil
// for a one-shot manager).
func referenceBuild(am *pm.Manager, r *region.Region, opts Options) (*Frame, map[ir.Reg]int, error) {
	am = pm.Ensure(am)
	predicated := r.Kind == region.KindHyperblock
	if r.Kind != region.KindPath && r.Kind != region.KindBraid && !predicated {
		return nil, nil, fmt.Errorf("frame: cannot frame a %s region", r.Kind)
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
				return nil, nil, fmt.Errorf("frame: region in %s contains a call; inline with passes.InlineAll first", r.F.Name)
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
	var live region.LiveSets
	r.LiveValues(am, &live)
	liveIn, liveOut := live.In.Regs(), live.Out.Regs()
	// Entry phis become frame arguments: their destinations join the
	// live-in set and their incoming operands (already counted live-in by
	// the region analysis) are what the host marshals.
	seen := analysis.NewRegSet(numRegs)
	if n := len(liveIn) + len(r.Entry.Phis()); n > 0 {
		fr.LiveIn = make([]ir.Reg, 0, n)
	}
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
	loadsSinceStore := make([]int, 0, nLoad)
	lastGuard := -1

	// Static memory disambiguation for the conservative ordering: two
	// accesses provably touch different words when their addresses are the
	// same base register plus different constant offsets (or two different
	// constants). Symbolic addresses are recovered by walking Add/Const
	// chains in the region.
	addrOf := referenceBuildAddrMap(r)
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
	var ctrl controllers
	var branchOpIdx []int32 // by Block.Index: the op of the block's branch, or -1
	if predicated {
		ctrl = controllersOf(r.F, am.ControlDependents(r.F))
		branchOpIdx = make([]int32, len(r.F.Blocks))
		for i := range branchOpIdx {
			branchOpIdx[i] = -1
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
			bound += len(ctrl.of(blk)) * len(blk.Instrs)
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
			for _, br := range ctrl.of(op.Block) {
				if idx := branchOpIdx[br.Index]; idx >= 0 {
					addDep(int(idx))
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
					branchOpIdx[b.Index] = int32(idx)
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

	def := make(map[ir.Reg]int, nInstr)
	for reg, idx := range defIdx {
		if idx >= 0 {
			def[ir.Reg(reg)] = int(idx)
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
	nCarried := 0
	for _, phi := range r.Entry.Phis() {
		for _, a := range phi.Args {
			if defsIn.Has(a) {
				nCarried++
			}
		}
	}
	if nCarried > 0 {
		fr.Carried = make([]CarriedPair, 0, nCarried)
		for _, phi := range r.Entry.Phis() {
			for _, a := range phi.Args {
				if defsIn.Has(a) {
					next, ok := def[a]
					if !ok {
						next = -1
					}
					fr.Carried = append(fr.Carried, CarriedPair{Phi: phi.Dst, Next: a, NextOp: next})
				}
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
		fr.HoistedMemOps = r.NumMemOps() - referenceBraidDependentMemOps(r)
	}
	return fr, def, nil
}

// referenceBuildAddrMap recovers symbolic addresses for registers defined in the
// region by folding Add-with-constant and Const chains. Registers whose
// value cannot be expressed as base+constant are simply absent.
func referenceBuildAddrMap(r *region.Region) *addrTable {
	n := r.F.NumRegs() + 1
	defs := make([]*ir.Instr, n)
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDest() {
				defs[in.Dst] = in
			}
		}
	}
	t := &addrTable{addr: make([]symAddr, n), have: make([]bool, n)}
	set := func(reg ir.Reg, a symAddr) (symAddr, bool) {
		t.addr[reg] = a
		t.have[reg] = true
		return a, true
	}
	var walk func(reg ir.Reg, depth int) (symAddr, bool)
	walk = func(reg ir.Reg, depth int) (symAddr, bool) {
		if t.have[reg] {
			return t.addr[reg], true
		}
		if depth > 16 {
			return symAddr{}, false
		}
		in := defs[reg]
		if in == nil {
			// Defined outside the region: itself a base.
			return set(reg, symAddr{base: reg})
		}
		switch in.Op {
		case ir.OpConst:
			return set(reg, symAddr{base: ir.NoReg, off: in.Imm})
		case ir.OpAdd:
			// base + const (either order).
			for i := 0; i < 2; i++ {
				if c, ok := walk(in.Args[i], depth+1); ok && c.base == ir.NoReg {
					if b, ok := walk(in.Args[1-i], depth+1); ok {
						return set(reg, symAddr{base: b.base, off: b.off + c.off})
					}
				}
			}
		case ir.OpCopy:
			if a, ok := walk(in.Args[0], depth+1); ok {
				return set(reg, a)
			}
		}
		// Opaque computation: treat the register itself as a fresh base.
		return set(reg, symAddr{base: reg})
	}
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			if in.Op.IsMemory() {
				walk(in.Args[0], 0)
			}
		}
	}
	return t
}

// referenceBraidDependentMemOps counts memory ops in blocks not shared by all merged
// paths (these stay control dependent on the braid's internal IFs).
func referenceBraidDependentMemOps(r *region.Region) int {
	if len(r.Paths) == 0 {
		return 0
	}
	// Dense per-block counters indexed by Block.Index (all blocks belong to
	// one function, so indices are unique here).
	maxIdx := 0
	for _, b := range r.Blocks {
		if b.Index > maxIdx {
			maxIdx = b.Index
		}
	}
	for _, p := range r.Paths {
		for _, b := range p.Blocks {
			maxIdx = max(maxIdx, int(b))
		}
	}
	onAll := make([]int, maxIdx+1)
	lastSeen := make([]int, maxIdx+1)
	for i, p := range r.Paths {
		for _, b := range p.Blocks {
			if lastSeen[b] != i+1 {
				lastSeen[b] = i + 1
				onAll[b]++
			}
		}
	}
	n := 0
	for _, b := range r.Blocks {
		if onAll[b.Index] == len(r.Paths) {
			continue
		}
		for _, in := range b.Instrs {
			if in.Op.IsMemory() {
				n++
			}
		}
	}
	return n
}

// referenceExpand is Expand as it was before carried pairs recorded their
// producing op: verbatim but for its name and for taking and returning the
// register-to-op map the Frame no longer carries.
func referenceExpand(fr *Frame, def map[ir.Reg]int, unroll int) (*Frame, map[ir.Reg]int, error) {
	if unroll < 1 {
		return nil, nil, fmt.Errorf("frame: unroll factor %d out of range", unroll)
	}
	if unroll == 1 {
		return fr, def, nil
	}
	out := &Frame{
		Region:        fr.Region,
		LiveIn:        fr.LiveIn,
		LiveOut:       fr.LiveOut,
		Guards:        fr.Guards * unroll,
		Selects:       fr.Selects * unroll,
		Cancelled:     fr.Cancelled * unroll,
		Stores:        fr.Stores * unroll,
		UndoOps:       fr.UndoOps * unroll,
		HoistedMemOps: fr.HoistedMemOps * unroll,
		Carried:       fr.Carried,
		Unroll:        unroll,
		opts:          fr.opts,
	}

	n := len(fr.Ops)
	// carriedNext[phi] = op index (within a copy) producing the phi's next
	// value; used to stitch copy c's phi uses to copy c-1's producer.
	carriedNext := make(map[ir.Reg]int)
	for _, cp := range fr.Carried {
		if idx, ok := def[cp.Next]; ok {
			carriedNext[cp.Phi] = idx
		}
	}

	for c := 0; c < unroll; c++ {
		base := c * n
		for _, op := range fr.Ops {
			nop := Op{Instr: op.Instr, Block: op.Block, Guard: op.Guard, Select: op.Select}
			for _, d := range op.Deps {
				nop.Deps = append(nop.Deps, base+d)
			}
			if c > 0 {
				// Wire carried-phi uses to the previous copy's producers.
				op.Instr.Uses(func(r ir.Reg) {
					if prev, ok := carriedNext[r]; ok {
						nop.Deps = append(nop.Deps, (c-1)*n+prev)
					}
				})
			}
			out.Ops = append(out.Ops, nop)
		}
	}
	// Def maps to the last copy (the values the host reads back).
	outDef := make(map[ir.Reg]int)
	for r, idx := range def {
		outDef[r] = (unroll-1)*n + idx
	}
	return out, outDef, nil
}
