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
	edgeExec  [][]bool       // [block index][terminator successor slot]
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

// EdgeExecutable reports whether the edge from b through terminator
// successor slot `slot` can ever be taken.
func (s *SCCP) EdgeExecutable(b *ir.Block, slot int) bool {
	if b.Index >= len(s.edgeExec) || slot >= len(s.edgeExec[b.Index]) {
		return false
	}
	return s.edgeExec[b.Index][slot]
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

// ComputeSCCP runs sparse conditional constant propagation on f. The
// function must be verified IR; f is not mutated.
func ComputeSCCP(f *ir.Function) *SCCP {
	s := &SCCP{
		f:         f,
		values:    make([]LatticeValue, len(f.RegType)),
		blockExec: make([]bool, len(f.Blocks)),
		edgeExec:  make([][]bool, len(f.Blocks)),
	}
	for _, b := range f.Blocks {
		s.edgeExec[b.Index] = make([]bool, len(b.Succs()))
	}
	// Parameters are runtime inputs: overdefined from the start.
	for i := 0; i < f.NumParams(); i++ {
		s.values[f.Param(i)] = bottomVal
	}

	uses := make([][]useSite, len(f.RegType))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			bb, ii := b, in
			in.Uses(func(r ir.Reg) { uses[r] = append(uses[r], useSite{bb, ii}) })
		}
	}

	var flowWL []flowEdge
	var ssaWL []ir.Reg
	var blockWL []*ir.Block

	// lower installs a new value for in.Dst if it lowers the lattice, and
	// queues the SSA worklist on change. Evaluation is monotone, so a
	// "raise" can only come from re-evaluating with stale inputs — those
	// are ignored.
	lower := func(in *ir.Instr, nv LatticeValue) {
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
		ssaWL = append(ssaWL, in.Dst)
	}

	val := func(r ir.Reg) LatticeValue {
		if r == ir.NoReg {
			return bottomVal
		}
		return s.values[r]
	}

	// predEdgeExecutable: is any edge from p into b executable?
	predEdgeExecutable := func(p, b *ir.Block) bool {
		for slot, t := range p.Succs() {
			if t == b && s.edgeExec[p.Index][slot] {
				return true
			}
		}
		return false
	}

	visit := func(b *ir.Block, in *ir.Instr) {
		switch in.Op {
		case ir.OpPhi:
			nv := LatticeValue{State: LatTop}
			for i, from := range in.Blocks {
				if predEdgeExecutable(from, b) {
					nv = meet(nv, val(in.Args[i]))
				}
			}
			lower(in, nv)
		case ir.OpLoad, ir.OpCall:
			// Memory contents and call results are runtime facts.
			lower(in, bottomVal)
		case ir.OpStore:
			// No destination, no flow effect.
		case ir.OpBr:
			flowWL = append(flowWL, flowEdge{b, 0})
		case ir.OpCondBr:
			switch c := val(in.Args[0]); c.State {
			case LatConst:
				if c.Bits != 0 {
					flowWL = append(flowWL, flowEdge{b, 0})
				} else {
					flowWL = append(flowWL, flowEdge{b, 1})
				}
			case LatBottom:
				flowWL = append(flowWL, flowEdge{b, 0}, flowEdge{b, 1})
			}
		case ir.OpRet:
			// No successors.
		case ir.OpConst:
			lower(in, constVal(uint64(in.Imm)))
		case ir.OpSelect:
			c, t, e := val(in.Args[0]), val(in.Args[1]), val(in.Args[2])
			switch c.State {
			case LatConst:
				if c.Bits != 0 {
					lower(in, t)
				} else {
					lower(in, e)
				}
			case LatBottom:
				lower(in, meet(t, e))
			}
		case ir.OpDiv, ir.OpRem:
			d := val(in.Args[1])
			if d.IsConst() && d.Bits == 0 {
				// Guaranteed trap: never a constant.
				lower(in, bottomVal)
				return
			}
			a := val(in.Args[0])
			switch {
			case a.State == LatBottom || d.State == LatBottom:
				lower(in, bottomVal)
			case a.IsConst() && d.IsConst():
				bits, _ := ir.EvalPure(in.Op, in.Imm, a.Bits, d.Bits, 0) // divisor is non-zero
				lower(in, constVal(bits))
			}
		default:
			// Pure value computation: constant when every operand is.
			nv := LatticeValue{State: LatTop}
			var vals [3]uint64
			allConst := true
			for i, a := range in.Args {
				av := val(a)
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
			lower(in, nv)
		}
	}

	markBlock := func(b *ir.Block) {
		if !s.blockExec[b.Index] {
			s.blockExec[b.Index] = true
			blockWL = append(blockWL, b)
		}
	}
	markBlock(f.Entry())

	for len(flowWL) > 0 || len(ssaWL) > 0 || len(blockWL) > 0 {
		switch {
		case len(blockWL) > 0:
			b := blockWL[len(blockWL)-1]
			blockWL = blockWL[:len(blockWL)-1]
			for _, in := range b.Instrs {
				visit(b, in)
			}
		case len(flowWL) > 0:
			e := flowWL[len(flowWL)-1]
			flowWL = flowWL[:len(flowWL)-1]
			if s.edgeExec[e.b.Index][e.slot] {
				continue
			}
			s.edgeExec[e.b.Index][e.slot] = true
			to := e.b.Succs()[e.slot]
			if !s.blockExec[to.Index] {
				markBlock(to)
			} else {
				// A new incoming edge can only change the phis.
				for _, phi := range to.Phis() {
					visit(to, phi)
				}
			}
		default:
			r := ssaWL[len(ssaWL)-1]
			ssaWL = ssaWL[:len(ssaWL)-1]
			for _, u := range uses[r] {
				if s.blockExec[u.b.Index] {
					visit(u.b, u.in)
				}
			}
		}
	}
	return s
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
