package ir_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"needle/internal/analysis"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/oracle"
	"needle/internal/passes"
	"needle/internal/profile"
)

// edgeOperands are the operand bit patterns every opcode is evaluated
// over: integer boundaries, shift amounts around the 6-bit mask, float
// specials (NaN payloads, infinities, negative zero, which is also
// MinInt64's bit pattern) and plain ±1.0.
var edgeOperands = []uint64{
	0, 1, math.MaxUint64, // 0, ±1
	1 << 63, math.MaxInt64, // MinInt64 (and -0.0), MaxInt64
	63, 64, 65,
	0x7FF8000000000001, 0xFFF0000000000001, // quiet and signalling NaN
	0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
	0x3FF0000000000000, 0xBFF0000000000000, // ±1.0
}

// constFolded is the opcode set passes.ConstFold rewrites.
var constFolded = map[ir.Op]bool{
	ir.OpAdd: true, ir.OpSub: true, ir.OpMul: true, ir.OpAnd: true, ir.OpOr: true,
	ir.OpXor: true, ir.OpShl: true, ir.OpShr: true, ir.OpCmpEQ: true, ir.OpCmpNE: true,
	ir.OpCmpLT: true, ir.OpCmpLE: true, ir.OpCmpGT: true, ir.OpCmpGE: true,
	ir.OpFAdd: true, ir.OpFSub: true, ir.OpFMul: true, ir.OpSIToFP: true, ir.OpCopy: true,
}

// evalCase is one opcode applied to constant operands (or, for OpConst,
// to its immediate).
type evalCase struct {
	op   ir.Op
	imm  int64
	args []uint64
}

// build returns `entry: rK = const args[K]...; rN = op ...; ret rN` and the
// instruction computing rN.
func (c evalCase) build(t *testing.T) (*ir.Function, *ir.Instr) {
	t.Helper()
	b := ir.NewBuilder("f")
	// Float opcodes (conversions from int aside) take F64 operands.
	float := c.op.IsFloat() && c.op != ir.OpSIToFP
	regs := make([]ir.Reg, len(c.args))
	for i, v := range c.args {
		if float {
			regs[i] = b.ConstF(math.Float64frombits(v))
		} else {
			regs[i] = b.ConstI(int64(v))
		}
	}
	var dst ir.Reg
	switch len(c.args) {
	case 0:
		dst = b.ConstI(c.imm)
	case 1:
		if c.op == ir.OpCopy {
			dst = b.Copy(regs[0])
		} else {
			dst = b.Unary(c.op, regs[0])
		}
	case 2:
		dst = b.Bin(c.op, regs[0], regs[1])
	case 3:
		dst = b.Select(regs[0], regs[1], regs[2])
	}
	b.Ret(dst)
	f, err := b.Finish()
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	entry := f.Blocks[0].Instrs
	return f, entry[len(entry)-2]
}

func (c evalCase) String() string {
	if c.op == ir.OpConst {
		return fmt.Sprintf("const %s", hex(uint64(c.imm)))
	}
	return fmt.Sprintf("%s %#x", c.op, c.args)
}

func hex(v uint64) string { return fmt.Sprintf("%#016x", v) }

func evalCases() []evalCase {
	var cs []evalCase
	for _, a := range edgeOperands {
		cs = append(cs, evalCase{op: ir.OpConst, imm: int64(a)})
	}
	unary := []ir.Op{ir.OpSqrt, ir.OpExp, ir.OpLog, ir.OpSIToFP, ir.OpFPToSI, ir.OpCopy}
	for _, op := range unary {
		for _, a := range edgeOperands {
			cs = append(cs, evalCase{op: op, args: []uint64{a}})
		}
	}
	for op := ir.OpAdd; op <= ir.OpFCmpGE; op++ {
		if op.IsCompare() || op <= ir.OpFDiv {
			for _, a := range edgeOperands {
				for _, b := range edgeOperands {
					cs = append(cs, evalCase{op: op, args: []uint64{a, b}})
				}
			}
		}
	}
	for _, cond := range []uint64{0, 1, math.MaxUint64} {
		for _, a := range edgeOperands {
			cs = append(cs, evalCase{op: ir.OpSelect, args: []uint64{cond, a, 0x7FF8000000000001}})
		}
	}
	return cs
}

// TestPureEvaluatorsAgree is the agreement oracle for NIR arithmetic:
// every pure opcode over every edge operand must give the same bits — or
// the same divide-by-zero fault — through ir.EvalPure, the hook
// interpreter, the compiled plan's fast path, SCCP, and (for the opcodes
// it folds) ConstFold.
func TestPureEvaluatorsAgree(t *testing.T) {
	for _, c := range evalCases() {
		var a [3]uint64
		copy(a[:], c.args)
		want, ok := ir.EvalPure(c.op, c.imm, a[0], a[1], a[2])
		if !ok && !(c.op == ir.OpDiv || c.op == ir.OpRem) {
			t.Fatalf("%s: EvalPure reports no value", c)
		}
		agrees := func(site string, got uint64, err error) {
			t.Helper()
			switch {
			case !ok && !errors.Is(err, interp.ErrDivideByZero):
				t.Errorf("%s: %s: got %s, %v; want the divide-by-zero fault", c, site, hex(got), err)
			case ok && (err != nil || got != want):
				t.Errorf("%s: %s: got %s, %v; want %s", c, site, hex(got), err, hex(want))
			}
		}
		f, in := c.build(t)

		res, err := oracle.Run(f, nil, nil, nil, 0)
		agrees("oracle.Run", res.Ret, err)

		col, cerr := profile.NewCollector(nil, f, false)
		if cerr != nil {
			t.Fatal(cerr)
		}
		res, err = col.Run(nil, nil, 0)
		agrees("plan", res.Ret, err)

		v := analysis.ComputeSCCP(f).Value(in.Dst)
		switch {
		case ok && (!v.IsConst() || v.Bits != want):
			t.Errorf("%s: SCCP: got %+v, want const %s", c, v, hex(want))
		case !ok && v.IsConst():
			t.Errorf("%s: SCCP: folded a trapping op to %s", c, hex(v.Bits))
		}

		g, gin := c.build(t)
		folded := passes.ConstFold(g) > 0
		if folded != constFolded[c.op] {
			t.Errorf("%s: ConstFold folded=%v, want %v", c, folded, constFolded[c.op])
		}
		if folded && uint64(gin.Imm) != want {
			t.Errorf("%s: ConstFold: got %s, want %s", c, hex(uint64(gin.Imm)), hex(want))
		}
	}
}

// TestEvalPurePinned pins semantics all evaluators could otherwise agree
// on wrongly: shift amounts are masked to 6 bits, shr is arithmetic, and
// MinInt64 / -1 wraps as Go's division does.
func TestEvalPurePinned(t *testing.T) {
	minInt := uint64(1 << 63)
	for _, tc := range []struct {
		op      ir.Op
		a, b    uint64
		want    uint64
		wantVal bool
	}{
		{ir.OpShl, 1, 65, 2, true},
		{ir.OpShr, uint64(0xFFFFFFFFFFFFFFF8), 1, uint64(0xFFFFFFFFFFFFFFFC), true}, // -8 >> 1 == -4
		{ir.OpDiv, minInt, math.MaxUint64, minInt, true},
		{ir.OpRem, minInt, math.MaxUint64, 0, true},
		{ir.OpDiv, 1, 0, 0, false},
		{ir.OpRem, 1, 0, 0, false},
		{ir.OpLoad, 0, 0, 0, false},
		{ir.OpPhi, 0, 0, 0, false},
	} {
		got, ok := ir.EvalPure(tc.op, 0, tc.a, tc.b, 0)
		if ok != tc.wantVal || got != tc.want {
			t.Errorf("%s %s, %s = %s, %v; want %s, %v", tc.op, hex(tc.a), hex(tc.b), hex(got), ok, hex(tc.want), tc.wantVal)
		}
	}
}
