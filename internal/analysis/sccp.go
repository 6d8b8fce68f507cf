// Sparse conditional constant propagation (Wegman/Zadeck) over NIR: the
// optimistic combination of constant propagation and reachability. Every
// register carries a three-level lattice value (top → constant → bottom)
// and every CFG edge an executable flag; the two worklists feed each other,
// so a branch whose condition folds to a constant stops propagation into
// the untaken side, which in turn keeps phis on the taken side constant
// where a pessimistic pass would have given up.
//
// Constants are evaluated by ir.EvalPure, the interpreter's own arithmetic
// (shift masking, Go signed division semantics, float ops through package
// math), so folding a lattice constant can never change an observable
// result. The one deliberate asymmetry: a division or remainder whose
// divisor is a constant zero is bottom, never a constant — the interpreter
// traps there, and an analysis result must not erase a trap.
package analysis

import (
	"fmt"

	"needle/internal/ir"
)

// LatticeState is the level of an SCCP lattice value.
type LatticeState uint8

const (
	// LatTop is the optimistic initial state: no evidence about the value
	// yet. At a fixpoint, top survives only in dead code.
	LatTop LatticeState = iota
	// LatConst is a proven run-time constant (Bits holds the raw pattern).
	LatConst
	// LatBottom is overdefined: the value varies at run time.
	LatBottom
)

func (s LatticeState) String() string {
	switch s {
	case LatTop:
		return "top"
	case LatConst:
		return "const"
	case LatBottom:
		return "bottom"
	}
	return fmt.Sprintf("lattice(%d)", uint8(s))
}

// LatticeValue is one register's SCCP fact: its state and, when the state
// is LatConst, the constant's raw 64-bit pattern (interpreted per the
// register's type, exactly like ir.Instr.Imm).
type LatticeValue struct {
	State LatticeState
	Bits  uint64
}

// IsConst reports whether the value is a proven constant.
func (v LatticeValue) IsConst() bool { return v.State == LatConst }

func constVal(bits uint64) LatticeValue { return LatticeValue{State: LatConst, Bits: bits} }

var bottomVal = LatticeValue{State: LatBottom}

// meet is the lattice meet: top is the identity, bottom absorbs, and two
// constants agree only on identical bit patterns.
func meet(a, b LatticeValue) LatticeValue {
	switch {
	case a.State == LatTop:
		return b
	case b.State == LatTop:
		return a
	case a.State == LatBottom || b.State == LatBottom:
		return bottomVal
	case a.Bits == b.Bits:
		return a
	default:
		return bottomVal
	}
}

// SCCP is the fixpoint result for one function.
type SCCP struct {
	f         *ir.Function
	values    []LatticeValue // indexed by register
	blockExec []bool         // indexed by block index
	// edgeExec[edgeOff[i]+k] flags successor slot k of block i.
	edgeOff  []int32
	edgeExec []bool
}

// Value returns the lattice value of r. Parameters are bottom (unknown at
// analysis time); registers defined only in dead code stay top.
func (s *SCCP) Value(r ir.Reg) LatticeValue {
	if r <= ir.NoReg || int(r) >= len(s.values) {
		return bottomVal
	}
	return s.values[r]
}

// BlockExecutable reports whether any run of the function can reach b.
// It is reachability refined by constant branches: a CFG-reachable block
// behind a provably-untaken edge is not executable.
func (s *SCCP) BlockExecutable(b *ir.Block) bool {
	return b.Index < len(s.blockExec) && s.blockExec[b.Index]
}

// ConstBranch reports whether b ends in a conditional branch whose
// condition is a proven constant, and if so which successor slot is taken
// (0 = condition non-zero, 1 = zero). Only meaningful for executable
// blocks.
func (s *SCCP) ConstBranch(b *ir.Block) (taken int, ok bool) {
	t := b.Term()
	if t == nil || t.Op != ir.OpCondBr || !s.BlockExecutable(b) {
		return 0, false
	}
	v := s.Value(t.Args[0])
	if !v.IsConst() {
		return 0, false
	}
	if v.Bits != 0 {
		return 0, true
	}
	return 1, true
}

// useSite is one instruction reading a register, with its block (uses in
// non-executable blocks are not re-evaluated).
type useSite struct {
	b  *ir.Block
	in *ir.Instr
}

// flowEdge identifies a CFG edge by source block and terminator slot.
type flowEdge struct {
	b    *ir.Block
	slot int
}

// sccpSolver is one run of the propagation: the result being built, the
// def-use table (the sites reading register r are
// uses[useOff[r]:useOff[r+1]], in program order) and the three worklists.
type sccpSolver struct {
	*SCCP
	useOff  []int32
	uses    []useSite
	flowWL  []flowEdge
	ssaWL   []ir.Reg
	blockWL []*ir.Block
}

// ComputeSCCP runs sparse conditional constant propagation on f. The
// function must be verified IR; f is not mutated.
func ComputeSCCP(f *ir.Function) *SCCP {
	n := len(f.Blocks)
	s := &sccpSolver{SCCP: &SCCP{
		f:       f,
		values:  make([]LatticeValue, len(f.RegType)),
		edgeOff: make([]int32, n+1),
	}}
	for _, b := range f.Blocks {
		s.edgeOff[b.Index+1] = s.edgeOff[b.Index] + int32(len(b.Succs()))
	}
	flags := make([]bool, n+int(s.edgeOff[n]))
	s.blockExec, s.edgeExec = flags[:n:n], flags[n:]
	// Parameters are runtime inputs: overdefined from the start.
	for i := 0; i < f.NumParams(); i++ {
		s.values[f.Param(i)] = bottomVal
	}

	// Count each register's uses into useOff[r+2], sum, then fill through
	// useOff[r+1], which leaves useOff[r] at the start of r's sites.
	s.useOff = make([]int32, len(f.RegType)+2)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, r := range in.Args {
				if r != ir.NoReg {
					s.useOff[r+2]++
				}
			}
		}
	}
	for i := 2; i < len(s.useOff); i++ {
		s.useOff[i] += s.useOff[i-1]
	}
	s.uses = make([]useSite, s.useOff[len(s.useOff)-1])
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, r := range in.Args {
				if r != ir.NoReg {
					s.uses[s.useOff[r+1]] = useSite{b, in}
					s.useOff[r+1]++
				}
			}
		}
	}

	// Every block is queued at most once; the other two lists start at one
	// entry per edge and per register and grow only past that.
	s.blockWL = make([]*ir.Block, 0, n)
	s.flowWL = make([]flowEdge, 0, len(s.edgeExec))
	s.ssaWL = make([]ir.Reg, 0, len(f.RegType))
	s.markBlock(f.Entry())

	for len(s.flowWL) > 0 || len(s.ssaWL) > 0 || len(s.blockWL) > 0 {
		switch {
		case len(s.blockWL) > 0:
			b := s.blockWL[len(s.blockWL)-1]
			s.blockWL = s.blockWL[:len(s.blockWL)-1]
			for _, in := range b.Instrs {
				s.visit(b, in)
			}
		case len(s.flowWL) > 0:
			e := s.flowWL[len(s.flowWL)-1]
			s.flowWL = s.flowWL[:len(s.flowWL)-1]
			at := s.edgeOff[e.b.Index] + int32(e.slot)
			if s.edgeExec[at] {
				continue
			}
			s.edgeExec[at] = true
			to := e.b.Succs()[e.slot]
			if !s.blockExec[to.Index] {
				s.markBlock(to)
			} else {
				// A new incoming edge can only change the phis.
				for _, phi := range to.Phis() {
					s.visit(to, phi)
				}
			}
		default:
			r := s.ssaWL[len(s.ssaWL)-1]
			s.ssaWL = s.ssaWL[:len(s.ssaWL)-1]
			for _, u := range s.uses[s.useOff[r]:s.useOff[r+1]] {
				if s.blockExec[u.b.Index] {
					s.visit(u.b, u.in)
				}
			}
		}
	}
	return s.SCCP
}

// lower installs a new value for in.Dst if it lowers the lattice, and
// queues the SSA worklist on change. Evaluation is monotone, so a "raise"
// can only come from re-evaluating with stale inputs — those are ignored.
func (s *sccpSolver) lower(in *ir.Instr, nv LatticeValue) {
	old := s.values[in.Dst]
	if nv.State == LatTop || old.State == LatBottom {
		return
	}
	if old.State == nv.State && old.Bits == nv.Bits {
		return
	}
	if old.State == LatConst && nv.State == LatConst {
		nv = bottomVal // conflicting constants
	}
	s.values[in.Dst] = nv
	s.ssaWL = append(s.ssaWL, in.Dst)
}

func (s *sccpSolver) val(r ir.Reg) LatticeValue {
	if r == ir.NoReg {
		return bottomVal
	}
	return s.values[r]
}

// predEdgeExecutable reports whether any edge from p into b is executable.
func (s *sccpSolver) predEdgeExecutable(p, b *ir.Block) bool {
	exec := s.edgeExec[s.edgeOff[p.Index]:s.edgeOff[p.Index+1]]
	for slot, t := range p.Succs() {
		if t == b && exec[slot] {
			return true
		}
	}
	return false
}

func (s *sccpSolver) markBlock(b *ir.Block) {
	if !s.blockExec[b.Index] {
		s.blockExec[b.Index] = true
		s.blockWL = append(s.blockWL, b)
	}
}

func (s *sccpSolver) visit(b *ir.Block, in *ir.Instr) {
	switch in.Op {
	case ir.OpPhi:
		nv := LatticeValue{State: LatTop}
		for i, from := range in.Blocks {
			if s.predEdgeExecutable(from, b) {
				nv = meet(nv, s.val(in.Args[i]))
			}
		}
		s.lower(in, nv)
	case ir.OpLoad, ir.OpCall:
		// Memory contents and call results are runtime facts.
		s.lower(in, bottomVal)
	case ir.OpStore:
		// No destination, no flow effect.
	case ir.OpBr:
		s.flowWL = append(s.flowWL, flowEdge{b, 0})
	case ir.OpCondBr:
		switch c := s.val(in.Args[0]); c.State {
		case LatConst:
			if c.Bits != 0 {
				s.flowWL = append(s.flowWL, flowEdge{b, 0})
			} else {
				s.flowWL = append(s.flowWL, flowEdge{b, 1})
			}
		case LatBottom:
			s.flowWL = append(s.flowWL, flowEdge{b, 0}, flowEdge{b, 1})
		}
	case ir.OpRet:
		// No successors.
	case ir.OpConst:
		s.lower(in, constVal(uint64(in.Imm)))
	case ir.OpSelect:
		c, t, e := s.val(in.Args[0]), s.val(in.Args[1]), s.val(in.Args[2])
		switch c.State {
		case LatConst:
			if c.Bits != 0 {
				s.lower(in, t)
			} else {
				s.lower(in, e)
			}
		case LatBottom:
			s.lower(in, meet(t, e))
		}
	case ir.OpDiv, ir.OpRem:
		d := s.val(in.Args[1])
		if d.IsConst() && d.Bits == 0 {
			// Guaranteed trap: never a constant.
			s.lower(in, bottomVal)
			return
		}
		a := s.val(in.Args[0])
		switch {
		case a.State == LatBottom || d.State == LatBottom:
			s.lower(in, bottomVal)
		case a.IsConst() && d.IsConst():
			bits, _ := ir.EvalPure(in.Op, in.Imm, a.Bits, d.Bits, 0) // divisor is non-zero
			s.lower(in, constVal(bits))
		}
	default:
		// Pure value computation: constant when every operand is.
		nv := LatticeValue{State: LatTop}
		var vals [3]uint64
		allConst := true
		for i, a := range in.Args {
			av := s.val(a)
			if av.State == LatBottom {
				nv = bottomVal
				allConst = false
				break
			}
			if av.State == LatTop {
				allConst = false
				continue
			}
			vals[i] = av.Bits
		}
		if allConst {
			if bits, ok := ir.EvalPure(in.Op, in.Imm, vals[0], vals[1], vals[2]); ok {
				nv = constVal(bits)
			} else {
				nv = bottomVal
			}
		}
		s.lower(in, nv)
	}
}

// DeadCodeFacts is the reachability/dead-code summary derived from an SCCP
// fixpoint: the facts `needle -vet` reports and the Opt stage acts on.
type DeadCodeFacts struct {
	// UnreachableBlocks lists blocks no execution reaches (CFG-unreachable
	// blocks plus blocks behind provably-untaken branches), in block order.
	UnreachableBlocks []*ir.Block
	// DeadDefs lists pure value definitions in executable blocks whose
	// results no instruction reads, in program order. Loads, calls, and
	// potentially-trapping div/rem are excluded: removing them would change
	// observable behaviour.
	DeadDefs []*ir.Instr
	// Foldable lists non-const instructions in executable blocks whose
	// lattice value is a proven constant, in program order.
	Foldable []*ir.Instr
}

// DeriveDeadCode computes the dead-code summary of f from an SCCP result.
func DeriveDeadCode(f *ir.Function, s *SCCP) *DeadCodeFacts {
	facts := &DeadCodeFacts{}
	used := NewRegSet(f.NumRegs())
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.Uses(func(r ir.Reg) { used.Add(r) })
		}
	}
	for _, b := range f.Blocks {
		if !s.BlockExecutable(b) {
			facts.UnreachableBlocks = append(facts.UnreachableBlocks, b)
			continue
		}
		for _, in := range b.Instrs {
			if !in.Op.HasDest() {
				continue
			}
			removable := in.Op != ir.OpCall && in.Op != ir.OpLoad &&
				in.Op != ir.OpDiv && in.Op != ir.OpRem
			if removable && !used.Has(in.Dst) {
				facts.DeadDefs = append(facts.DeadDefs, in)
			}
			if in.Op != ir.OpConst && s.Value(in.Dst).IsConst() {
				facts.Foldable = append(facts.Foldable, in)
			}
		}
	}
	return facts
}
