// Compiled execution plans: a per-function plan precomputes everything the
// interpreter's inner loop otherwise rediscovers on every iteration — phi
// move tables per (predecessor, block) pair, flattened per-block instruction
// arrays, and dense successor-slot tables — so RunProfiled collects block
// counts, edge counts, Ball-Larus path counts, and the path trace by direct
// array increments with zero hook closures.
//
// The plan plays the role the instrumented binary plays in the original
// Needle system: the Ball-Larus instrumentation is "a handful of adds per
// edge", and the plan brings the reproduction's profiling cost to the same
// shape. It is the one engine, and BuildPlan accepts every verified
// function. BuildPlan links each call site to its callee's plan, so a call
// runs its callee to completion on that plan, unprofiled and untimed,
// within the caller's step budget; Exec is the same loop with nothing
// profiled. A shape the plan cannot run (phis in the entry block, or a CFG
// ir.Verify rejects) becomes an error that every run returns. The
// tree-walking reference the differential tests check the plan against is
// package oracle's Run.
package interp

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"needle/internal/ir"
	"needle/internal/obs"
)

// Observability counters. One Add per run keeps the inner loop untouched;
// a callee's steps count in its caller's run.
var (
	obsFastRuns   = obs.GetCounter("interp.runs.fast")
	obsFastInstrs = obs.GetCounter("interp.instrs.fast")
	obsPlanBuilds = obs.GetCounter("interp.plan.builds")
)

// ErrTimedCall is returned by a timed run (PlanOpts.Timing set) of a plan
// whose body calls another function: callees run unprofiled, so the timing
// model would miss their instructions and branches. The pipeline inlines
// every call before it captures.
var ErrTimedCall = errors.New("interp: timed run with calls")

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// Terminator kinds of a planned block.
const (
	termBr   = iota // unconditional branch: succ slot 0
	termCond        // conditional branch: slot 0 taken, slot 1 fall-through
	termRet         // function return
)

// phiMove is one precompiled phi assignment: dst receives src when control
// arrives over the move table's edge.
type phiMove struct {
	dst, src ir.Reg
}

// planSucc is one successor slot of a planned block.
type planSucc struct {
	to       int32 // target block index
	edgeSlot int32 // dense edge-counter index (parallel edges share a slot)
	predSlot int32 // index of this edge's source in the target's move tables
	taken    uint8 // 1 when this slot is Blocks[0] of the terminator
}

// planBlock is the flattened form of one basic block.
type planBlock struct {
	phis []*ir.Instr // phi prefix (its length bounds the block's steps)
	body []*ir.Instr // non-phi, non-terminator instructions
	term *ir.Instr   // the terminator
	// moves[predSlot] lists the phi assignments to perform when control
	// arrives from the predSlot-th unique predecessor. A nil entry for a
	// block with phis reproduces the interpreter's missing-edge error.
	moves   [][]phiMove
	succs   [2]planSucc
	kind    uint8
	condReg ir.Reg // condition register for termCond
	retReg  ir.Reg // returned register for termRet (NoReg for void)
	// packet is the block's precompiled timing packet (phi prefix, body,
	// terminator in feed order); built only for plans without an error.
	packet *TimingPacket
	// code mirrors body as dense records (opcode, registers, immediate) so
	// the fast-path dispatch reads one contiguous struct per instruction
	// instead of chasing an *ir.Instr and its Args slice; built only for
	// plans without an error, backed by a per-plan arena.
	code []execEntry
}

// Plan is the compiled execution plan of one function. Plans are immutable
// once built and safe for concurrent use; they are cached per function by
// pm.Manager (KindExecPlan).
type Plan struct {
	f      *ir.Function
	blocks []planBlock
	// preds[predOff[i]:predOff[i+1]] are block i's unique predecessors,
	// which number its move tables; kept for error paths.
	predOff  []int32
	preds    []*ir.Block
	edgeFrom []int32 // dense edge slot -> source block index
	edgeTo   []int32 // dense edge slot -> target block index
	maxPhis  int
	maxMem   int // most memory ops in any one block (address-scratch size)
	// calls is set when some body calls a function: timed runs then return
	// ErrTimedCall. callees[k] is the plan of the k-th call site, in block
	// order, whose execution record holds k as its immediate.
	calls   bool
	callees []*Plan
	// zero, set on a plan some call site links to, is the zeroOverlay its
	// callee runs use.
	zero *BLPlan
	// calleeBlocks and calleeEdges, set on a plan BuildPlan links, are the
	// most blocks and edge slots of any plan it links, which size the
	// counter state its callee runs share (see callScratch).
	calleeBlocks, calleeEdges int
	// err, when set, is what every run returns: the tree-walker's
	// entry-phi error, or the first shape ir.Verify rejects.
	err error
}

// execEntry is one body instruction flattened for the fast-path dispatch:
// opcode, destination, up to three argument registers, and the immediate,
// in 32 contiguous bytes. Rare opcodes still consult the original
// *ir.Instr (the Eval fallback needs it), but the hot switch never does.
type execEntry struct {
	op         ir.Op
	dst        int32
	a0, a1, a2 int32
	imm        int64
}

// BuildPlan compiles f into a Plan, linked to the plan of every function
// its calls reach. Building always succeeds; a function the plan cannot run
// records the error RunProfiled then returns.
func BuildPlan(f *ir.Function) *Plan {
	p := compile(f)
	if p.calls {
		built := map[*ir.Function]*Plan{f: p}
		p.link(built)
		for _, q := range built {
			p.calleeBlocks = max(p.calleeBlocks, len(q.blocks))
			p.calleeEdges = max(p.calleeEdges, len(q.edgeFrom))
		}
	}
	return p
}

// link points each call record of p at its callee's plan. built holds the
// plans compiled so far, so each reachable function is compiled once and a
// recursive cycle shares one plan; a call-free plan links nothing.
func (p *Plan) link(built map[*ir.Function]*Plan) {
	if !p.calls || p.err != nil {
		return
	}
	for i := range p.blocks {
		pb := &p.blocks[i]
		for j, in := range pb.body {
			if in.Op != ir.OpCall {
				continue
			}
			q, ok := built[in.Callee]
			if !ok {
				q = compile(in.Callee)
				built[in.Callee] = q
				q.link(built)
			}
			if q.zero == nil {
				q.zero = zeroOverlay(q)
			}
			pb.code[j].imm = int64(len(p.callees))
			p.callees = append(p.callees, q)
		}
	}
}

// compile builds f's plan without linking its calls.
//
// Every per-block table — unique predecessors, phi move tables, dense edge
// slots, timing packets and execution records — is a window of one
// per-plan arena, sized by a counting pass over the blocks.
func compile(f *ir.Function) *Plan {
	obsPlanBuilds.Add(1)
	p := &Plan{f: f}
	if len(f.Blocks) == 0 {
		p.err = fmt.Errorf("interp: %s has no blocks", f.Name)
		return p
	}
	// The tree-walker resolves entry phis against no predecessor, which
	// fails before the first step.
	entry := f.Entry()
	if phis := entry.Phis(); len(phis) > 0 {
		p.err = PhiEdgeFault(f, entry, phis[0], nil)
	}
	n := len(f.Blocks)
	p.blocks = make([]planBlock, n)

	// Count: predecessor entries (an upper bound on the unique ones), edge
	// slots (parallel condbr edges share one), and everything the packets
	// and execution records hold.
	nPredRefs, nEdges, nInstrs, nSrcs := 0, 0, 0, 0
	for _, b := range f.Blocks {
		nPredRefs += len(b.Preds)
		if t := b.Term(); t != nil && (t.Op == ir.OpBr || t.Op == ir.OpCondBr) {
			for k, target := range t.Blocks {
				if k != 1 || t.Blocks[0] != target {
					nEdges++
				}
			}
		}
		nInstrs += len(b.Instrs)
		for _, in := range b.Instrs {
			for _, r := range in.Args {
				if r != ir.NoReg {
					nSrcs++
				}
			}
		}
	}
	// One int32 arena: predecessor offsets, the two edge-slot tables, then
	// the packets' source offsets and source registers.
	ints := make([]int32, n+1+2*nEdges+nInstrs+n+nSrcs)
	p.predOff = ints[: n+1 : n+1]
	p.edgeFrom = ints[n+1 : n+1 : n+1+nEdges]
	p.edgeTo = ints[n+1+nEdges : n+1+nEdges : n+1+2*nEdges]
	offs, srcs := ints[n+1+2*nEdges:n+1+2*nEdges+nInstrs+n], ints[n+1+2*nEdges+nInstrs+n:]

	// Unique predecessor lists index the phi move tables.
	p.preds = make([]*ir.Block, 0, nPredRefs)
	nHdrs, nMoves := 0, 0
	for i, b := range f.Blocks {
		start := len(p.preds)
		for _, pr := range b.Preds {
			if !slices.Contains(p.preds[start:], pr) {
				p.preds = append(p.preds, pr)
			}
		}
		p.predOff[i+1] = int32(len(p.preds))
		if phis := len(b.Phis()); phis > 0 {
			nHdrs += len(p.preds) - start
			nMoves += phis * (len(p.preds) - start)
		}
	}
	var hdrs [][]phiMove
	var moves []phiMove
	nBody := 0
	if nHdrs > 0 {
		hdrs = make([][]phiMove, nHdrs)
		moves = make([]phiMove, nMoves)
	}

	for i, b := range f.Blocks {
		pb := &p.blocks[i]
		phis := b.Phis()
		pb.phis = phis
		if len(phis) > p.maxPhis {
			p.maxPhis = len(phis)
		}
		term := b.Term()
		if term == nil {
			p.fail(fmt.Errorf("interp: %s.%s: block does not end in a terminator", f.Name, b.Name))
			continue
		}
		pb.term = term
		pb.body = b.Instrs[len(phis) : len(b.Instrs)-1]
		nBody += len(pb.body)
		for _, in := range pb.body {
			if in.Op == ir.OpCall {
				p.calls = true
			} else if in.Op.IsTerminator() {
				p.fail(fmt.Errorf("interp: %s.%s: interior terminator %s", f.Name, b.Name, in.Op))
			}
		}

		// Move tables: for each unique predecessor, the parallel-copy the
		// phi prefix performs. A phi lacking an incoming edge leaves a nil
		// table, reproducing the interpreter's runtime error on traversal.
		if len(phis) > 0 {
			preds := p.preds[p.predOff[i]:p.predOff[i+1]]
			pb.moves, hdrs = hdrs[:len(preds):len(preds)], hdrs[len(preds):]
			for slot, pr := range preds {
				table := moves[:len(phis):len(phis)]
				ok := true
				for j, phi := range phis {
					idx := slices.Index(phi.Blocks, pr)
					if idx < 0 {
						ok = false
						break
					}
					table[j] = phiMove{dst: phi.Dst, src: phi.Args[idx]}
				}
				if ok {
					pb.moves[slot] = table
					moves = moves[len(phis):]
				}
			}
		}

		switch term.Op {
		case ir.OpRet:
			pb.kind = termRet
			pb.retReg = ir.NoReg
			if len(term.Args) == 1 {
				pb.retReg = term.Args[0]
			}
		case ir.OpBr, ir.OpCondBr:
			if term.Op == ir.OpBr {
				pb.kind = termBr
			} else {
				pb.kind = termCond
				pb.condReg = term.Args[0]
			}
			for k, target := range term.Blocks {
				slot := int32(len(p.edgeFrom))
				// Parallel condbr edges (both targets identical) are one CFG
				// edge: reuse the slot allocated for the first arm.
				if k == 1 && term.Blocks[0] == target {
					slot = p.blocks[i].succs[0].edgeSlot
				} else {
					p.edgeFrom = append(p.edgeFrom, int32(i))
					p.edgeTo = append(p.edgeTo, int32(target.Index))
				}
				taken := uint8(0)
				if term.Blocks[0] == target {
					taken = 1
				}
				predSlot := int32(slices.Index(p.preds[p.predOff[target.Index]:p.predOff[target.Index+1]], b))
				pb.succs[k] = planSucc{
					to:       int32(target.Index),
					edgeSlot: slot,
					predSlot: predSlot,
					taken:    taken,
				}
			}
		default:
			p.fail(fmt.Errorf("interp: %s.%s: unknown terminator %s", f.Name, b.Name, term.Op))
		}
	}

	// Timing packets: the dynamic feed sequence of each block (phi prefix,
	// body, terminator — the block's instructions in order) in dense
	// arrays, so a timed run hands its Timing one FeedBlock per executed
	// block; and the body's execution records, for the dispatch. A plan
	// with an error never executes, so it pays for neither.
	if p.err != nil {
		return p
	}
	pks := make([]TimingPacket, n)
	ent := make([]TimingEntry, nInstrs)
	code := make([]execEntry, 0, nBody)
	for i := range p.blocks {
		pb := &p.blocks[i]
		instrs := f.Blocks[i].Instrs
		ns := packetSrcs(instrs)
		fillPacket(&pks[i], instrs, ent[:len(instrs):len(instrs)], offs[:len(instrs)+1:len(instrs)+1], srcs[:ns:ns])
		ent, offs, srcs = ent[len(instrs):], offs[len(instrs)+1:], srcs[ns:]
		pb.packet = &pks[i]
		if pb.packet.NumMem > p.maxMem {
			p.maxMem = pb.packet.NumMem
		}

		// Dense execution records for the body dispatch.
		c0 := len(code)
		for _, in := range pb.body {
			e := execEntry{op: in.Op, dst: int32(in.Dst), imm: in.Imm}
			switch len(in.Args) {
			case 0:
			case 1:
				e.a0 = int32(in.Args[0])
			case 2:
				e.a0, e.a1 = int32(in.Args[0]), int32(in.Args[1])
			default:
				e.a0, e.a1, e.a2 = int32(in.Args[0]), int32(in.Args[1]), int32(in.Args[2])
			}
			code = append(code, e)
		}
		pb.code = code[c0:len(code):len(code)]
	}
	return p
}

// fail records err unless an earlier error was recorded.
func (p *Plan) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// BlockPacket returns the timing packet of block i, or nil for a plan with
// an error. Exposed for the packet equivalence tests.
func (p *Plan) BlockPacket(i int) *TimingPacket { return p.blocks[i].packet }

// F returns the planned function.
func (p *Plan) F() *ir.Function { return p.f }

// NumEdges returns the number of dense edge-counter slots.
func (p *Plan) NumEdges() int { return len(p.edgeFrom) }

// Edge returns the (from, to) block indices of a dense edge slot.
func (p *Plan) Edge(slot int) (from, to int) {
	return int(p.edgeFrom[slot]), int(p.edgeTo[slot])
}

// NumSuccs returns the number of successor slots of block i (0 for ret).
func (p *Plan) NumSuccs(i int) int {
	switch p.blocks[i].kind {
	case termBr:
		return 1
	case termCond:
		return 2
	}
	return 0
}

// Succ returns the target block index of successor slot k of block i.
func (p *Plan) Succ(i, k int) int { return int(p.blocks[i].succs[k].to) }

// BLEdge carries the Ball-Larus annotation of one successor slot: the path
// register increment, and for back edges the flush/reset behaviour.
type BLEdge struct {
	Inc   int64 // value added to the path register (Val of the DAG edge)
	Reset int64 // path register value after a back-edge flush
	Flush bool  // true for back edges: record(reg+Inc), reg = Reset
}

// BLPlan overlays Ball-Larus path numbering onto a Plan. It is built by
// ballarus.DAG.CompilePlan and is immutable after construction.
type BLPlan struct {
	EntryVal int64       // initial path register value
	NumPaths int64       // distinct acyclic paths (sizes the dense counters)
	Succs    [][2]BLEdge // per block, parallel to the plan's successor slots
	RetVal   []int64     // per block: Val(b->EXIT) for returning blocks
}

// MaxDensePaths bounds the path-count table a PathState allocates densely;
// functions with more acyclic paths fall back to a sparse map, mirroring how
// real path profilers degrade to hashing.
const MaxDensePaths = int64(1) << 17

// PathState accumulates one collector's dense profile across any number of
// RunProfiled invocations: block counts, edge counts, path counts (dense
// below MaxDensePaths), and the optional path trace.
type PathState struct {
	Blocks []int64 // indexed by block index
	Edges  []int64 // indexed by dense edge slot
	Trace  []int64 // completed path IDs in execution order

	dense       []int64
	sparse      map[int64]int64
	recordTrace bool
}

// NewPathState sizes a state for the plan. numPaths selects dense versus
// sparse path counting; recordTrace enables trace capture.
func NewPathState(p *Plan, numPaths int64, recordTrace bool) *PathState {
	st := &PathState{
		Blocks:      make([]int64, len(p.blocks)),
		Edges:       make([]int64, len(p.edgeFrom)),
		recordTrace: recordTrace,
	}
	if numPaths > 0 && numPaths <= MaxDensePaths {
		st.dense = denseTable(int(numPaths))
	} else {
		st.sparse = make(map[int64]int64)
	}
	return st
}

// denseTables holds the dense path-count tables of released states for
// later ones, so a process that profiles many small programs, as needled
// does, stops allocating one per capture. MaxDensePaths bounds what one
// entry retains.
var denseTables sync.Pool

// denseTable returns a zeroed table of n counts, a released one when the
// pool's first is long enough.
func denseTable(n int) []int64 {
	if t, _ := denseTables.Get().(*[]int64); t != nil && cap(*t) >= n {
		d := (*t)[:n]
		clear(d)
		return d
	}
	return make([]int64, n)
}

// Release hands the state's dense path-count table back for reuse. The
// state must not run or report its paths afterwards; its block, edge and
// trace tables stay the caller's.
func (st *PathState) Release() {
	if d := st.dense; d != nil {
		st.dense = nil
		denseTables.Put(&d)
	}
}

// EachPath calls fn for every executed path ID with its frequency.
func (st *PathState) EachPath(fn func(id, freq int64)) {
	if st.dense != nil {
		for id, n := range st.dense {
			if n != 0 {
				fn(int64(id), n)
			}
		}
		return
	}
	for id, n := range st.sparse {
		fn(id, n)
	}
}

// record counts one completed path, traces it, and reports it to timing
// when the run is timed.
func (st *PathState) record(id int64, timing Timing) {
	if st.dense != nil {
		st.dense[id]++
	} else {
		st.sparse[id]++
	}
	if st.recordTrace {
		st.Trace = append(st.Trace, id)
	}
	if timing != nil {
		timing.EndPath(id)
	}
}

// Timing is the one consumer of a timed run's dynamic stream: the executed
// blocks as timing packets, the conditional-branch outcomes, and the path
// completions, in program order. sim.Capture's consumer drives the host
// timing model (ooo.Model supplies FeedBlock and NoteBranch) and attributes
// cycles to each path occurrence in EndPath.
type Timing interface {
	// FeedBlock schedules the first n entries of the packet. addrs holds the
	// effective word addresses of the memory entries among them, in entry
	// order (extra trailing addresses are ignored, which lets a partial feed
	// after a faulting memory op reuse the caller's scratch as-is).
	FeedBlock(pk *TimingPacket, n int, addrs []int64)
	// NoteBranch reports a conditional branch outcome, after the block the
	// branch ends has been fed and after the EndPath its edge completes.
	NoteBranch(taken bool)
	// EndPath reports a completed Ball-Larus path ID, after the profile
	// counters update and before the completing branch's NoteBranch, so a
	// consumer reading the branch history here sees it as of the path's
	// last branch, without that branch's own bit.
	EndPath(id int64)
}

// PlanOpts configures RunProfiled.
type PlanOpts struct {
	// MaxSteps bounds dynamic instructions (<= 0: a default of 1<<32).
	MaxSteps int64
	// MaxOccurrences bounds the path occurrences the run completes (<= 0:
	// unbounded). The run stops with ErrOccurrenceLimit instead of
	// completing one more, so a recorded trace never outgrows the bound.
	MaxOccurrences int64
	// Timing, when non-nil, receives the run's dynamic stream: one FeedBlock
	// per executed block, every conditional-branch outcome and every path
	// completion.
	Timing Timing
}

// RunProfiled executes a planned function over the fused profiling fast path:
// block, edge, and Ball-Larus path counters update by direct array
// increments, with no hook closures in the inner loop. Results, step counts,
// errors, and memory are identical to the tree-walking oracle.Run's, and the
// profile to a member-filtered Ball-Larus profiler's on that Run — the
// property the differential tests pin down. A callee runs to completion on
// its own plan within the same step budget; its blocks are not profiled,
// and a timed run of a plan with calls returns ErrTimedCall.
func RunProfiled(p *Plan, bl *BLPlan, args, mem []uint64, st *PathState, opts PlanOpts) (Result, error) {
	res, err := runProfiled(p, bl, args, mem, st, opts, 0, 0, nil)
	obsFastRuns.Add(1)
	obsFastInstrs.Add(res.Steps)
	return res, err
}

// Exec runs p on args over mem with nothing profiled or timed, bounded by
// maxSteps dynamic instructions (<= 0: a default of 1<<32). Argument and
// return values are raw 64-bit patterns; use F/FBits for float parameters.
func Exec(p *Plan, args, mem []uint64, maxSteps int64) (Result, error) {
	bl := p.zero
	if bl == nil {
		bl = zeroOverlay(p)
	}
	// The one path slot counts every path, each of ID 0; the state never
	// leaves the call, so it needs no pooled table.
	st := &PathState{Blocks: make([]int64, len(p.blocks)), Edges: make([]int64, len(p.edgeFrom)), dense: make([]int64, 1)}
	return RunProfiled(p, bl, args, mem, st, PlanOpts{MaxSteps: maxSteps})
}

// zeroOverlay returns a Ball-Larus overlay for p whose every increment and
// path ID is 0: an unprofiled run's, whose counters nobody reads.
func zeroOverlay(p *Plan) *BLPlan {
	return &BLPlan{NumPaths: 1, Succs: make([][2]BLEdge, len(p.blocks)), RetVal: make([]int64, len(p.blocks))}
}

// runProfiled is RunProfiled for a run that starts with steps already
// executed, depth calls deep: a callee's run (see call) continues its
// caller's count, and shares its root run's scratch sc (nil on the root
// run, which makes one if it has calls).
func runProfiled(p *Plan, bl *BLPlan, args, mem []uint64, st *PathState, opts PlanOpts, steps int64, depth int, sc *callScratch) (Result, error) {
	f := p.f
	if len(args) != f.NumParams() {
		return Result{Steps: steps}, fmt.Errorf("interp: %s wants %d args, got %d", f.Name, f.NumParams(), len(args))
	}
	if p.err != nil {
		return Result{Steps: steps}, p.err
	}
	if p.calls && opts.Timing != nil {
		return Result{Steps: steps}, fmt.Errorf("%w in %s", ErrTimedCall, f.Name)
	}
	if p.calls && sc == nil {
		sc = &callScratch{st: PathState{
			Blocks: make([]int64, p.calleeBlocks),
			Edges:  make([]int64, p.calleeEdges),
			dense:  make([]int64, 1),
		}}
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1 << 32
	}
	maxOcc := opts.MaxOccurrences
	if maxOcc <= 0 {
		maxOcc = math.MaxInt64
	}
	var occ int64 // path occurrences completed so far
	timing := opts.Timing
	timed := timing != nil

	// A timed run feeds one FeedBlock per executed block, walking the
	// precompiled packet. Error paths feed the partial packet up to the
	// last completed instruction, so the model's state matches the
	// per-instruction oracle even on runs that fault mid-block. The address
	// scratch is reused across every block of the run.
	var addrs []int64
	if timed && p.maxMem > 0 {
		addrs = make([]int64, 0, p.maxMem)
	}

	regs := make([]uint64, len(f.RegType))
	for i, a := range args {
		regs[f.Param(i)] = a
	}
	var phiTmp []uint64
	if p.maxPhis > 0 {
		phiTmp = make([]uint64, p.maxPhis)
	}

	cur := 0
	predSlot := int32(0)
	pathReg := bl.EntryVal
	blocks := p.blocks

	for {
		b := &blocks[cur]
		st.Blocks[cur]++
		// One bounds check per block: when the whole block fits under the
		// step budget, the per-instruction limit checks are skipped.
		careful := steps+int64(len(b.phis)+len(b.body)+1) > maxSteps
		nPhis := len(b.phis)
		if timed {
			addrs = addrs[:0]
		}

		if nPhis > 0 {
			moves := b.moves[predSlot]
			if moves == nil {
				return Result{Steps: steps}, p.phiEdgeError(cur, predSlot)
			}
			for i := range moves {
				phiTmp[i] = regs[moves[i].src]
			}
			for i := range moves {
				regs[moves[i].dst] = phiTmp[i]
				steps++
				if careful && steps > maxSteps {
					if timed {
						timing.FeedBlock(b.packet, i, addrs)
					}
					return Result{Steps: steps}, fmt.Errorf("%w (limit %d) in %s", ErrStepLimit, maxSteps, f.Name)
				}
			}
		}

		for j := range b.code {
			c := &b.code[j]
			steps++
			if careful && steps > maxSteps {
				if timed {
					timing.FeedBlock(b.packet, nPhis+j, addrs)
				}
				return Result{Steps: steps}, fmt.Errorf("%w (limit %d) in %s", ErrStepLimit, maxSteps, f.Name)
			}
			// The common opcodes are inlined below with arithmetic identical
			// to ir.EvalPure's (two's-complement add/sub/mul/shl are the same bits
			// signed or unsigned; shr stays an arithmetic int64 shift); rare
			// opcodes and every error path fall back to Eval so results and
			// error messages cannot drift.
			switch c.op {
			case ir.OpAdd:
				regs[c.dst] = regs[c.a0] + regs[c.a1]
			case ir.OpSub:
				regs[c.dst] = regs[c.a0] - regs[c.a1]
			case ir.OpMul:
				regs[c.dst] = regs[c.a0] * regs[c.a1]
			case ir.OpAnd:
				regs[c.dst] = regs[c.a0] & regs[c.a1]
			case ir.OpOr:
				regs[c.dst] = regs[c.a0] | regs[c.a1]
			case ir.OpXor:
				regs[c.dst] = regs[c.a0] ^ regs[c.a1]
			case ir.OpShl:
				regs[c.dst] = regs[c.a0] << (regs[c.a1] & 63)
			case ir.OpShr:
				regs[c.dst] = uint64(int64(regs[c.a0]) >> (regs[c.a1] & 63))
			case ir.OpCmpEQ:
				regs[c.dst] = b2u(regs[c.a0] == regs[c.a1])
			case ir.OpCmpNE:
				regs[c.dst] = b2u(regs[c.a0] != regs[c.a1])
			case ir.OpCmpLT:
				regs[c.dst] = b2u(int64(regs[c.a0]) < int64(regs[c.a1]))
			case ir.OpCmpLE:
				regs[c.dst] = b2u(int64(regs[c.a0]) <= int64(regs[c.a1]))
			case ir.OpCmpGT:
				regs[c.dst] = b2u(int64(regs[c.a0]) > int64(regs[c.a1]))
			case ir.OpCmpGE:
				regs[c.dst] = b2u(int64(regs[c.a0]) >= int64(regs[c.a1]))
			case ir.OpFAdd:
				regs[c.dst] = math.Float64bits(math.Float64frombits(regs[c.a0]) + math.Float64frombits(regs[c.a1]))
			case ir.OpFSub:
				regs[c.dst] = math.Float64bits(math.Float64frombits(regs[c.a0]) - math.Float64frombits(regs[c.a1]))
			case ir.OpFMul:
				regs[c.dst] = math.Float64bits(math.Float64frombits(regs[c.a0]) * math.Float64frombits(regs[c.a1]))
			case ir.OpFDiv:
				regs[c.dst] = math.Float64bits(math.Float64frombits(regs[c.a0]) / math.Float64frombits(regs[c.a1]))
			case ir.OpConst:
				regs[c.dst] = uint64(c.imm)
			case ir.OpCopy:
				regs[c.dst] = regs[c.a0]
			case ir.OpSelect:
				if regs[c.a0] != 0 {
					regs[c.dst] = regs[c.a1]
				} else {
					regs[c.dst] = regs[c.a2]
				}
			case ir.OpLoad:
				addr := int64(regs[c.a0])
				if timed {
					addrs = append(addrs, addr)
				}
				if uint64(addr) < uint64(len(mem)) {
					regs[c.dst] = mem[addr]
				} else if _, err := Eval(b.body[j], regs, mem); err != nil {
					if timed {
						timing.FeedBlock(b.packet, nPhis+j, addrs)
					}
					return Result{Steps: steps}, fmt.Errorf("%w in %s.%s", err, f.Name, f.Blocks[cur].Name)
				}
			case ir.OpStore:
				addr := int64(regs[c.a0])
				if timed {
					addrs = append(addrs, addr)
				}
				if uint64(addr) < uint64(len(mem)) {
					mem[addr] = regs[c.a1]
				} else if _, err := Eval(b.body[j], regs, mem); err != nil {
					if timed {
						timing.FeedBlock(b.packet, nPhis+j, addrs)
					}
					return Result{Steps: steps}, fmt.Errorf("%w in %s.%s", err, f.Name, f.Blocks[cur].Name)
				}
			default:
				in := b.body[j]
				if c.op == ir.OpCall {
					v, n, err := p.call(c.imm, in, regs, mem, steps, maxSteps, depth, sc)
					steps = n
					if err != nil {
						return Result{Steps: steps}, err
					}
					regs[in.Dst] = v
					// The block-entry bound no longer covers the rest of
					// the block, so it checks every step.
					careful = true
					continue
				}
				v, err := Eval(in, regs, mem)
				if err != nil {
					if timed {
						timing.FeedBlock(b.packet, nPhis+j, addrs)
					}
					return Result{Steps: steps}, fmt.Errorf("%w in %s.%s", err, f.Name, f.Blocks[cur].Name)
				}
				if in.Op.HasDest() {
					regs[in.Dst] = v
				}
			}
		}

		steps++
		if careful && steps > maxSteps {
			if timed {
				timing.FeedBlock(b.packet, nPhis+len(b.body), addrs)
			}
			return Result{Steps: steps}, fmt.Errorf("%w (limit %d) in %s", ErrStepLimit, maxSteps, f.Name)
		}
		if timed {
			timing.FeedBlock(b.packet, b.packet.Len(), addrs)
		}
		switch b.kind {
		case termRet:
			var ret uint64
			if b.retReg != ir.NoReg {
				ret = regs[b.retReg]
			}
			if occ++; occ > maxOcc {
				return Result{Steps: steps}, occurrenceLimit(maxOcc, f)
			}
			st.record(pathReg+bl.RetVal[cur], timing)
			return Result{Ret: ret, Steps: steps}, nil
		case termBr:
			s := &b.succs[0]
			e := &bl.Succs[cur][0]
			st.Edges[s.edgeSlot]++
			if e.Flush {
				if occ++; occ > maxOcc {
					return Result{Steps: steps}, occurrenceLimit(maxOcc, f)
				}
				st.record(pathReg+e.Inc, timing)
				pathReg = e.Reset
			} else {
				pathReg += e.Inc
			}
			cur, predSlot = int(s.to), s.predSlot
		default: // termCond
			k := 1
			if regs[b.condReg] != 0 {
				k = 0
			}
			s := &b.succs[k]
			e := &bl.Succs[cur][k]
			st.Edges[s.edgeSlot]++
			if e.Flush {
				if occ++; occ > maxOcc {
					return Result{Steps: steps}, occurrenceLimit(maxOcc, f)
				}
				st.record(pathReg+e.Inc, timing)
				pathReg = e.Reset
			} else {
				pathReg += e.Inc
			}
			if timed {
				timing.NoteBranch(s.taken != 0)
			}
			cur, predSlot = int(s.to), s.predSlot
		}
	}
}

// occurrenceLimit is the error a run stops with when it would complete
// path occurrence max+1 of f.
func occurrenceLimit(max int64, f *ir.Function) error {
	return fmt.Errorf("%w (limit %d) in %s", ErrOccurrenceLimit, max, f.Name)
}

// callScratch is what every callee run under one root run shares: the
// counter state, which nobody reads, sized by the largest linked plan, and
// the argument buffer, which a callee copies into its registers before it
// runs anything that could call again.
type callScratch struct {
	st   PathState
	args []uint64
}

// call runs the callee of call site k (the instruction in) to completion
// on its plan, through runProfiled under the plan's zero Ball-Larus overlay
// and sc's counter state, unprofiled and untimed. It continues the caller's
// step count under the same budget, one call deeper, and returns the
// callee's result and the step count after the call.
func (p *Plan) call(k int64, in *ir.Instr, regs, mem []uint64, steps, maxSteps int64, depth int, sc *callScratch) (uint64, int64, error) {
	q := p.callees[k]
	if depth >= maxCallDepth {
		return 0, steps, fmt.Errorf("%w in %s", ErrCallDepth, q.f.Name)
	}
	sc.args = sc.args[:0]
	for _, a := range in.Args {
		sc.args = append(sc.args, regs[a])
	}
	res, err := runProfiled(q, q.zero, sc.args, mem, &sc.st, PlanOpts{MaxSteps: maxSteps}, steps, depth+1, sc)
	return res.Ret, res.Steps, err
}

// phiEdgeError reproduces the tree-walker's missing-phi-edge error
// for the (block, predecessor slot) pair.
func (p *Plan) phiEdgeError(cur int, predSlot int32) error {
	b := p.f.Blocks[cur]
	pred := p.preds[p.predOff[cur]+predSlot]
	for _, phi := range b.Phis() {
		if !slices.Contains(phi.Blocks, pred) {
			return PhiEdgeFault(p.f, b, phi, pred)
		}
	}
	return fmt.Errorf("interp: %s.%s: phi resolution failed from %s", p.f.Name, b.Name, pred)
}
