// Package frame implements Needle's software frames (Section V): the
// accelerator-microarchitecture-independent offload unit generated from a
// BL-Path or Braid. A frame is an atomic block of dataflow operations with
// branches converted to asynchronous guards, phis cancelled (paths) or
// turned into selects (braids), stores instrumented for a software undo
// log, and live-in/live-out marshalling at the boundary.
package frame

import (
	"fmt"
	"slices"
	"strings"

	"needle/internal/analysis"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/region"
)

// GuardPlacement selects where guard checks constrain the dataflow graph.
// This is the "regulate when the guard checks are inserted" knob of the
// paper's Section I, exercised by the ablation benchmarks.
type GuardPlacement uint8

const (
	// GuardsAsync detaches guards from the dataflow: every hoisted operation
	// may execute before any guard resolves, failures are detected at the
	// end of the invocation. Maximum ILP, maximum wasted work on failure.
	// This is the paper's default evaluation model.
	GuardsAsync GuardPlacement = iota
	// GuardsSerialize makes each operation depend on the most recent guard
	// in region order: less hoisting, earlier failure detection.
	GuardsSerialize
)

// MemOrdering selects how memory operations are ordered inside a frame.
type MemOrdering uint8

const (
	// MemSpeculative imposes no ordering edges between frame memory
	// operations: the undo log makes the frame atomic, and the paper's
	// frames "permit all operations to be speculative, including memory
	// operations" (Section V). This is the default and exposes the
	// memory-level parallelism the accelerator needs.
	MemSpeculative MemOrdering = iota
	// MemConservative serializes stores and orders loads around stores in
	// program order, modeling an accelerator without memory speculation.
	// Kept for the ablation benchmarks.
	MemConservative
)

// Options controls frame construction.
type Options struct {
	Placement GuardPlacement
	Ordering  MemOrdering
	// UndoOpsPerStore is the number of bookkeeping operations the software
	// undo log adds per instrumented store (read old value + append to log).
	// Zero selects the default of 2.
	UndoOpsPerStore int
}

// Op is one node of the frame's dataflow graph.
type Op struct {
	Instr *ir.Instr
	Block *ir.Block
	// Deps are indices (into Frame.Ops) of operations this one must follow:
	// register producers, memory ordering, and — under GuardsSerialize —
	// the preceding guard.
	Deps []int
	// Guard marks converted branches.
	Guard bool
	// Select marks phis converted to selection operations (braid merges).
	Select bool
}

// Frame is a constructed software frame.
type Frame struct {
	Region *region.Region
	Ops    []Op

	// LiveIn lists registers the frame consumes from the host: ordinary
	// live-ins plus the destinations of entry-block phis (whose incoming
	// values the host marshals at invocation).
	LiveIn []ir.Reg
	// LiveOut lists registers the host reads back after a successful
	// invocation.
	LiveOut []ir.Reg

	Guards     int // branches converted to guards
	Selects    int // phis converted to selects
	Cancelled  int // phis cancelled by single-flow extraction
	Stores     int // stores instrumented with undo logging
	UndoOps    int // total bookkeeping ops added for the undo log
	Predicates int // branches converted to predicate computations (hyperblocks)

	// HoistedMemOps counts memory operations that became control
	// independent inside the frame (C7 of Table II: all of them for a
	// path; common-block ones for a braid).
	HoistedMemOps int

	// Carried records the loop-carried value pairs of the region: for each
	// entry-block phi (a frame input), the in-region register that produces
	// its value for the next consecutive invocation. The accelerator's
	// initiation interval is bounded by the latency of these recurrences.
	Carried []CarriedPair

	// Unroll is the target-expansion factor (Section IV-A); 0 or 1 means a
	// single path instance per invocation.
	Unroll int

	opts Options
}

// BuildOptions returns the options the frame was constructed with (after
// normalization — defaults filled, predicated overrides applied).
func (fr *Frame) BuildOptions() Options { return fr.opts }

// CarriedPair links an entry phi (frame input) to the in-region register
// feeding it on the next iteration.
type CarriedPair struct {
	Phi  ir.Reg
	Next ir.Reg
	// NextOp is the index in Ops of the op producing Next (a cancelled
	// phi's forwarded producer), or -1 when no op of the frame does.
	NextOp int
}

// Scratch holds the tables Build sizes by the function's register and
// block counts: the register-to-op table, the symbolic-address tables, the
// region's live-value sets, and the control dependences predicated frames
// read. Build refills them in place, so framing several regions of one
// function through one Scratch sizes them once; a region of another
// function resizes them. A Scratch is not safe for concurrent use. The
// zero value is ready to use.
type Scratch struct {
	f        *ir.Function // the function the tables below describe
	live     region.LiveSets
	defIdx   []int32 // register -> producing op index, -1 for none
	addrs    addrTable
	loads    []int       // loads emitted since the last store
	ctrl     controllers // of f; off is nil until a predicated frame needs it
	branchOp []int32     // by Block.Index: the op of the block's branch, or -1
}

// use points the scratch at f, dropping the tables of another function.
func (sc *Scratch) use(f *ir.Function) {
	if sc.f != f {
		sc.f = f
		sc.ctrl = controllers{}
	}
}

// resized returns s with length n, reusing its storage when it has room.
// The contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Build constructs the offload unit for a region. Path and braid regions
// become speculative software frames. Hyperblock regions become the
// non-speculative predicated configuration of Figure 2's middle column:
// branches turn into predicate computations every subsequent operation
// depends on, memory stays conservatively ordered, and there is no undo
// log — the design Needle's software speculation is compared against.
// Superblocks have multiple exits with a single flow of control and cannot
// be framed. Liveness and control-dependence facts are served by am (nil
// for a one-shot manager). A caller framing several regions of one
// function passes one Scratch as sc to every call; without it Build uses a
// fresh one.
func Build(am *pm.Manager, r *region.Region, opts Options, sc ...*Scratch) (*Frame, error) {
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
	s := new(Scratch)
	if len(sc) > 0 && sc[0] != nil {
		s = sc[0]
	}
	s.use(r.F)
	fr := &Frame{Region: r, opts: opts}

	r.LiveValues(am, &s.live)
	// Entry phis become frame arguments: their destinations join the
	// live-in set and their incoming operands (already counted live-in by
	// the region analysis) are what the host marshals.
	liveIn := s.live.In
	if n := liveIn.Len() + len(r.Entry.Phis()); n > 0 {
		fr.LiveIn = make([]ir.Reg, 0, n)
		liveIn.ForEach(func(reg ir.Reg) { fr.LiveIn = append(fr.LiveIn, reg) })
		for _, phi := range r.Entry.Phis() {
			if !liveIn.Has(phi.Dst) {
				liveIn.Add(phi.Dst)
				fr.LiveIn = append(fr.LiveIn, phi.Dst)
			}
		}
	}
	fr.LiveOut = s.live.Out.Regs()

	// Linearize the region into dataflow ops. Sizing the op list up front
	// (region instructions plus undo-log headroom) keeps the emit loop from
	// repeatedly regrowing it.
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
	// space: every use probes it.
	s.defIdx = resized(s.defIdx, r.F.NumRegs()+1)
	defIdx := s.defIdx
	for i := range defIdx {
		defIdx[i] = -1
	}
	lastStore := -1
	loadsSinceStore := slices.Grow(s.loads[:0], nLoad)
	lastGuard := -1

	// Static memory disambiguation for the conservative ordering: two
	// accesses provably touch different words when their addresses are the
	// same base register plus different constant offsets (or two different
	// constants). Symbolic addresses are recovered by walking Add/Const
	// chains in the region.
	addrOf := &s.addrs
	if opts.Ordering == MemConservative {
		addrOf.build(r)
	}
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
		if s.ctrl.off == nil {
			s.ctrl = controllersOf(r.F, am.ControlDependents(r.F))
		}
		ctrl = s.ctrl
		s.branchOp = resized(s.branchOp, len(r.F.Blocks))
		branchOpIdx = s.branchOp
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
	s.loads = loadsSinceStore

	// Loop-carried recurrences: entry phis whose incoming value is defined
	// inside the region (arriving over a back edge from a region block),
	// each with the op producing it.
	defsIn := s.live.Defs
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
					fr.Carried = append(fr.Carried, CarriedPair{Phi: phi.Dst, Next: a, NextOp: int(defIdx[a])})
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
		fr.HoistedMemOps = r.NumMemOps() - r.BranchMemDeps()
	}
	return fr, nil
}

// controllers inverts a function's control dependences: the branch blocks
// block i is control dependent on are blocks[off[i]:off[i+1]], in block
// order.
type controllers struct {
	off    []int32
	blocks []*ir.Block
}

func (c controllers) of(b *ir.Block) []*ir.Block {
	return c.blocks[c.off[b.Index]:c.off[b.Index+1]]
}

// controllersOf counts each block's controlling branches into off[i+2],
// sums, then fills through off[i+1], visiting branches in block order.
func controllersOf(f *ir.Function, cd *analysis.ControlDeps) controllers {
	c := controllers{off: make([]int32, len(f.Blocks)+2)}
	for _, br := range f.Blocks {
		for _, dep := range cd.Of(br) {
			c.off[dep.Index+2]++
		}
	}
	for i := 2; i < len(c.off); i++ {
		c.off[i] += c.off[i-1]
	}
	c.blocks = make([]*ir.Block, c.off[len(c.off)-1])
	for _, br := range f.Blocks {
		for _, dep := range cd.Of(br) {
			c.blocks[c.off[dep.Index+1]] = br
			c.off[dep.Index+1]++
		}
	}
	c.off = c.off[:len(f.Blocks)+1]
	return c
}

// symAddr is a symbolic word address: base register (NoReg for absolute
// constants) plus a constant offset.
type symAddr struct {
	base ir.Reg
	off  int64
}

// addrTable holds recovered symbolic addresses, dense over the function's
// register space: have[r] marks registers whose address is known, and
// defs[r] is r's defining instruction inside the region.
type addrTable struct {
	defs []*ir.Instr
	addr []symAddr
	have []bool
}

func (t *addrTable) get(r ir.Reg) (symAddr, bool) {
	if int(r) >= len(t.addr) {
		return symAddr{}, false
	}
	return t.addr[r], t.have[r]
}

// build recovers symbolic addresses for the address operands of the
// region's memory operations by folding Add-with-constant and Const chains,
// refilling the tables in place. Registers whose value cannot be expressed
// as base+constant are simply absent.
func (t *addrTable) build(r *region.Region) {
	n := r.F.NumRegs() + 1
	t.defs, t.addr, t.have = resized(t.defs, n), resized(t.addr, n), resized(t.have, n)
	clear(t.defs)
	clear(t.have)
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDest() {
				t.defs[in.Dst] = in
			}
		}
	}
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			if in.Op.IsMemory() {
				t.walk(in.Args[0], 0)
			}
		}
	}
}

func (t *addrTable) set(reg ir.Reg, a symAddr) (symAddr, bool) {
	t.addr[reg] = a
	t.have[reg] = true
	return a, true
}

// walk returns reg's symbolic address, recording it and every address the
// chain below it resolves.
func (t *addrTable) walk(reg ir.Reg, depth int) (symAddr, bool) {
	if t.have[reg] {
		return t.addr[reg], true
	}
	if depth > 16 {
		return symAddr{}, false
	}
	in := t.defs[reg]
	if in == nil {
		// Defined outside the region: itself a base.
		return t.set(reg, symAddr{base: reg})
	}
	switch in.Op {
	case ir.OpConst:
		return t.set(reg, symAddr{base: ir.NoReg, off: in.Imm})
	case ir.OpAdd:
		// base + const (either order).
		for i := 0; i < 2; i++ {
			if c, ok := t.walk(in.Args[i], depth+1); ok && c.base == ir.NoReg {
				if b, ok := t.walk(in.Args[1-i], depth+1); ok {
					return t.set(reg, symAddr{base: b.base, off: b.off + c.off})
				}
			}
		}
	case ir.OpCopy:
		if a, ok := t.walk(in.Args[0], depth+1); ok {
			return t.set(reg, a)
		}
	}
	// Opaque computation: treat the register itself as a fresh base.
	return t.set(reg, symAddr{base: reg})
}

// pathPhiIncoming returns the incoming value of a phi along a single path
// region: the value flowing from the path predecessor of the phi's block.
func pathPhiIncoming(r *region.Region, b *ir.Block, phi *ir.Instr) ir.Reg {
	var prev *ir.Block
	for i, blk := range r.Blocks {
		if blk == b && i > 0 {
			prev = r.Blocks[i-1]
			break
		}
	}
	if prev == nil {
		return ir.NoReg
	}
	for i, from := range phi.Blocks {
		if from == prev {
			return phi.Args[i]
		}
	}
	return ir.NoReg
}

// NumOps returns the number of dataflow operations in the frame, excluding
// undo-log bookkeeping.
func (fr *Frame) NumOps() int { return len(fr.Ops) }

// TotalOps returns dataflow operations plus undo-log bookkeeping: the work
// the accelerator actually performs per invocation.
func (fr *Frame) TotalOps() int { return len(fr.Ops) + fr.UndoOps }

// CriticalPath returns the length (in ops) of the longest dependence chain
// through the frame: the dataflow-limited lower bound on execution.
func (fr *Frame) CriticalPath() int {
	depth := make([]int, len(fr.Ops))
	max := 0
	for i, op := range fr.Ops {
		d := 1
		for _, dep := range op.Deps {
			if depth[dep]+1 > d {
				d = depth[dep] + 1
			}
		}
		depth[i] = d
		if d > max {
			max = d
		}
	}
	return max
}

// ILP returns ops divided by critical path length: the average dataflow
// parallelism the frame exposes.
func (fr *Frame) ILP() float64 {
	cp := fr.CriticalPath()
	if cp == 0 {
		return 0
	}
	return float64(len(fr.Ops)) / float64(cp)
}

// Dot renders the frame's dataflow graph in Graphviz DOT format: one node
// per op (guards as diamonds, selects as trapezia, memory shaded) and one
// edge per dependence. Useful for inspecting what a region compiles to:
//
//	needle -workload 470.lbm -dot | dot -Tsvg > frame.svg
func (fr *Frame) Dot() string {
	var sb strings.Builder
	sb.WriteString("digraph frame {\n  rankdir=TB;\n  node [fontsize=9];\n")
	for i, op := range fr.Ops {
		label := op.Instr.Op.String()
		if op.Instr.Dst != ir.NoReg {
			label = op.Instr.Dst.String() + " = " + label
		}
		attr := "shape=box"
		switch {
		case op.Guard:
			attr = "shape=diamond, style=filled, fillcolor=lightyellow"
		case op.Select:
			attr = "shape=trapezium"
		case op.Instr.Op.IsMemory():
			attr = "shape=box, style=filled, fillcolor=lightgrey"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q, %s];\n", i, label, attr)
		for _, d := range op.Deps {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", d, i)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
