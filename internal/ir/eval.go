package ir

import "math"

// EvalPure evaluates one pure opcode over operand bit patterns: a, b and c
// are the values of Args[0], Args[1] and Args[2] (operands the opcode does
// not take are ignored) and imm is OpConst's immediate. It is the one
// definition of NIR arithmetic: the interpreter, SCCP and the constant
// folder all call it. Integers are two's-complement int64 (Go's truncating
// signed division), shift amounts are masked to 6 bits and shr is
// arithmetic, and floats are IEEE-754 float64 through package math.
//
// It reports false for opcodes that are not pure value computations
// (phis, memory, calls, control flow) and for a division or remainder by
// zero, which traps at run time.
func EvalPure(op Op, imm int64, a, b, c uint64) (uint64, bool) {
	switch op {
	case OpAdd:
		return uint64(int64(a) + int64(b)), true
	case OpSub:
		return uint64(int64(a) - int64(b)), true
	case OpMul:
		return uint64(int64(a) * int64(b)), true
	case OpDiv:
		if b == 0 {
			return 0, false
		}
		return uint64(int64(a) / int64(b)), true
	case OpRem:
		if b == 0 {
			return 0, false
		}
		return uint64(int64(a) % int64(b)), true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return uint64(int64(a) << (b & 63)), true
	case OpShr:
		return uint64(int64(a) >> (b & 63)), true
	case OpFAdd:
		return math.Float64bits(f64(a) + f64(b)), true
	case OpFSub:
		return math.Float64bits(f64(a) - f64(b)), true
	case OpFMul:
		return math.Float64bits(f64(a) * f64(b)), true
	case OpFDiv:
		return math.Float64bits(f64(a) / f64(b)), true
	case OpSqrt:
		return math.Float64bits(math.Sqrt(f64(a))), true
	case OpExp:
		return math.Float64bits(math.Exp(f64(a))), true
	case OpLog:
		return math.Float64bits(math.Log(f64(a))), true
	case OpSIToFP:
		return math.Float64bits(float64(int64(a))), true
	case OpFPToSI:
		return uint64(int64(f64(a))), true
	case OpCmpEQ:
		return bit(a == b), true
	case OpCmpNE:
		return bit(a != b), true
	case OpCmpLT:
		return bit(int64(a) < int64(b)), true
	case OpCmpLE:
		return bit(int64(a) <= int64(b)), true
	case OpCmpGT:
		return bit(int64(a) > int64(b)), true
	case OpCmpGE:
		return bit(int64(a) >= int64(b)), true
	case OpFCmpEQ:
		return bit(f64(a) == f64(b)), true
	case OpFCmpNE:
		return bit(f64(a) != f64(b)), true
	case OpFCmpLT:
		return bit(f64(a) < f64(b)), true
	case OpFCmpLE:
		return bit(f64(a) <= f64(b)), true
	case OpFCmpGT:
		return bit(f64(a) > f64(b)), true
	case OpFCmpGE:
		return bit(f64(a) >= f64(b)), true
	case OpConst:
		return uint64(imm), true
	case OpCopy:
		return a, true
	case OpSelect:
		if a != 0 {
			return b, true
		}
		return c, true
	}
	return 0, false
}

func f64(bits uint64) float64 { return math.Float64frombits(bits) }

func bit(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
