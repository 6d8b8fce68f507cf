// Package interp executes IR functions on compiled execution plans (see
// plan.go): one engine runs the profiled function, every callee and plain
// runs (Exec). It plays the role the natively-executed, instrumented binary
// plays in the original LLVM-based system: the source of dynamic profiles.
// The hook-driven tree-walker the differential tests check it against is
// package oracle's Run.
package interp

import (
	"errors"
	"fmt"
	"math"

	"needle/internal/ir"
)

// Errors a run returns.
var (
	ErrDivideByZero = errors.New("interp: integer divide by zero")
	ErrOutOfBounds  = errors.New("interp: memory access out of bounds")
	ErrStepLimit    = errors.New("interp: step limit exceeded")
	// ErrOccurrenceLimit stops a profiled run that would complete more
	// path occurrences than PlanOpts.MaxOccurrences allows.
	ErrOccurrenceLimit = errors.New("interp: path occurrence limit exceeded")
)

// Result summarizes one execution.
type Result struct {
	Ret   uint64 // raw bits of the return value; 0 for void
	Steps int64  // dynamically executed instructions, terminators included
}

// F converts raw bits to float64.
func F(bits uint64) float64 { return math.Float64frombits(bits) }

// FBits converts a float64 to raw bits.
func FBits(v float64) uint64 { return math.Float64bits(v) }

// I converts raw bits to int64.
func I(bits uint64) int64 { return int64(bits) }

// IBits converts an int64 to raw bits.
func IBits(v int64) uint64 { return uint64(v) }

// ErrNoPhiEdge is wrapped by the fault a run raises when control enters a
// block whose phi has no incoming value for the edge control took, or for
// no edge at all: a phi in the entry block, which ir.Verify accepts.
var ErrNoPhiEdge = errors.New("interp: phi has no incoming edge")

// phiEdgeError is a missing-phi-edge fault: its text names the function,
// block, phi and predecessor, and it wraps ErrNoPhiEdge.
type phiEdgeError struct{ msg string }

func (e *phiEdgeError) Error() string { return e.msg }
func (e *phiEdgeError) Unwrap() error { return ErrNoPhiEdge }

// PhiEdgeFault returns the fault for a phi of block b in f reached from
// pred (nil on function entry).
func PhiEdgeFault(f *ir.Function, b *ir.Block, phi *ir.Instr, pred *ir.Block) error {
	return &phiEdgeError{fmt.Sprintf("interp: %s.%s: phi %s has no incoming edge from %s", f.Name, b.Name, phi.Dst, pred)}
}

// maxCallDepth bounds recursion through OpCall.
const maxCallDepth = 256

// ErrCallDepth is returned when call nesting exceeds maxCallDepth.
var ErrCallDepth = errors.New("interp: call depth exceeded")

// Eval executes one non-control instruction against a register file and
// memory, returning the raw result bits. Memory access and the traps
// (ErrOutOfBounds, ErrDivideByZero) are handled here; every other opcode's
// arithmetic is ir.EvalPure. It is also the single-instruction building
// block reused by the speculation runtime's frame executor.
func Eval(in *ir.Instr, regs []uint64, mem []uint64) (uint64, error) {
	var a, b, c uint64
	switch len(in.Args) {
	case 3:
		c = regs[in.Args[2]]
		fallthrough
	case 2:
		b = regs[in.Args[1]]
		fallthrough
	case 1:
		a = regs[in.Args[0]]
	}
	switch in.Op {
	case ir.OpLoad:
		addr := int64(a)
		if addr < 0 || addr >= int64(len(mem)) {
			return 0, fmt.Errorf("%w: load of word %d (mem size %d)", ErrOutOfBounds, addr, len(mem))
		}
		return mem[addr], nil
	case ir.OpStore:
		addr := int64(a)
		if addr < 0 || addr >= int64(len(mem)) {
			return 0, fmt.Errorf("%w: store to word %d (mem size %d)", ErrOutOfBounds, addr, len(mem))
		}
		mem[addr] = b
		return 0, nil
	case ir.OpDiv, ir.OpRem:
		if b == 0 {
			return 0, ErrDivideByZero
		}
	}
	if v, ok := ir.EvalPure(in.Op, in.Imm, a, b, c); ok {
		return v, nil
	}
	return 0, fmt.Errorf("interp: unhandled opcode %s", in.Op)
}
