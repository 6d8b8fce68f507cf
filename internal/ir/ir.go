// Package ir defines the compiler intermediate representation that the
// Needle pipeline analyzes and transforms.
//
// The IR is deliberately close in shape to the subset of LLVM IR the
// original Needle system consumed: functions are explicit control-flow
// graphs of basic blocks; instructions are typed, SSA-form (each virtual
// register is defined exactly once); control joins carry phi nodes; and
// memory is accessed only through explicit load/store instructions. Those
// are precisely the properties the paper's analyses (Ball-Larus path
// profiling, region formation, frame construction) rely on.
//
// Memory is word addressed: an address operand selects a 64-bit cell, which
// a load or store interprets as either an int64 or a float64 depending on
// the instruction type. This keeps the interpreter and the workload kernels
// free of byte-alignment bookkeeping without changing any control-flow or
// dependence property the paper measures.
package ir

import "fmt"

// Type is the type of a value held in a virtual register or memory cell.
type Type uint8

// Value types. Comparisons and boolean guards produce I64 values of 0 or 1.
const (
	I64 Type = iota // 64-bit signed integer
	F64             // IEEE-754 double
)

func (t Type) String() string {
	switch t {
	case I64:
		return "i64"
	case F64:
		return "f64"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Reg names a virtual register. Register 0 (NoReg) means "no register";
// real registers are numbered from 1. Function parameters occupy the first
// registers.
type Reg int32

// NoReg is the absent register, used for instructions without a destination
// and for void returns.
const NoReg Reg = 0

func (r Reg) String() string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("r%d", int32(r))
}

// Op enumerates instruction opcodes.
type Op uint8

const (
	// Integer arithmetic (binary, I64).
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv // signed division; divide-by-zero is a runtime error
	OpRem // signed remainder; remainder-by-zero is a runtime error
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr // arithmetic shift right

	// Floating-point arithmetic (binary, F64).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Floating-point unary intrinsics (F64). These model FPU library calls
	// that real accelerators map to pipelined units.
	OpSqrt
	OpExp
	OpLog

	// Conversions.
	OpSIToFP // I64 -> F64
	OpFPToSI // F64 -> I64 (truncating)

	// Integer comparisons: produce I64 0 or 1.
	OpCmpEQ
	OpCmpNE
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE

	// Floating-point comparisons: produce I64 0 or 1.
	OpFCmpEQ
	OpFCmpNE
	OpFCmpLT
	OpFCmpLE
	OpFCmpGT
	OpFCmpGE

	// Data movement.
	OpConst  // materialize Imm (bit pattern; Type selects interpretation)
	OpCopy   // Dst = Args[0]
	OpSelect // Dst = Args[0] != 0 ? Args[1] : Args[2]
	OpPhi    // Dst = value from Args[i] where Blocks[i] was the predecessor

	// Memory. Addresses are word indices into the interpreter's memory.
	OpLoad  // Dst = Mem[Args[0]]
	OpStore // Mem[Args[0]] = Args[1]

	// Calls. Dst = Callee(Args...). Needle's analyses run on fully inlined
	// hot functions (Section II-A), so the pipeline inlines these away with
	// passes.Inline before profiling.
	OpCall

	// Terminators.
	OpBr     // unconditional branch to Blocks[0]
	OpCondBr // branch to Blocks[0] if Args[0] != 0, else Blocks[1]
	OpRet    // return Args[0] if present

	opCount // sentinel
)

var opNames = [opCount]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpSqrt: "sqrt", OpExp: "exp", OpLog: "log",
	OpSIToFP: "sitofp", OpFPToSI: "fptosi",
	OpCmpEQ: "cmp.eq", OpCmpNE: "cmp.ne", OpCmpLT: "cmp.lt",
	OpCmpLE: "cmp.le", OpCmpGT: "cmp.gt", OpCmpGE: "cmp.ge",
	OpFCmpEQ: "fcmp.eq", OpFCmpNE: "fcmp.ne", OpFCmpLT: "fcmp.lt",
	OpFCmpLE: "fcmp.le", OpFCmpGT: "fcmp.gt", OpFCmpGE: "fcmp.ge",
	OpConst: "const", OpCopy: "copy", OpSelect: "select", OpPhi: "phi",
	OpLoad: "load", OpStore: "store", OpCall: "call",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Op) IsTerminator() bool {
	return o == OpBr || o == OpCondBr || o == OpRet
}

// IsMemory reports whether the opcode accesses memory.
func (o Op) IsMemory() bool { return o == OpLoad || o == OpStore }

// IsFloat reports whether the opcode executes on a floating-point unit.
func (o Op) IsFloat() bool {
	switch o {
	case OpFAdd, OpFSub, OpFMul, OpFDiv, OpSqrt, OpExp, OpLog,
		OpFCmpEQ, OpFCmpNE, OpFCmpLT, OpFCmpLE, OpFCmpGT, OpFCmpGE,
		OpSIToFP, OpFPToSI:
		return true
	}
	return false
}

// IsCompare reports whether the opcode is an integer or float comparison.
func (o Op) IsCompare() bool {
	return o >= OpCmpEQ && o <= OpFCmpGE
}

// HasDest reports whether instructions with this opcode define a register.
func (o Op) HasDest() bool {
	switch o {
	case OpStore, OpBr, OpCondBr, OpRet:
		return false
	}
	return true
}

// ResultType returns the type of the value an opcode produces given the
// instruction's declared type. Comparisons always produce I64.
func (o Op) ResultType(declared Type) Type {
	switch {
	case o.IsCompare():
		return I64
	case o == OpFPToSI:
		return I64
	case o == OpSIToFP:
		return F64
	}
	return declared
}

// OpByName resolves a textual opcode name as produced by Instr.String.
// It returns opCount and false for unknown names.
func OpByName(name string) (Op, bool) {
	if op, ok := opByName[name]; ok {
		return op, true
	}
	return opCount, false
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = Op(op)
	}
	return m
}()

// Instr is a single IR instruction.
//
// The operand fields are interpreted per opcode:
//
//   - Binary/unary ops: Args holds the operand registers; Dst the result.
//   - OpConst: Imm holds the raw 64-bit pattern; Type selects i64 vs f64.
//   - OpPhi: Args[i] is the incoming value when control arrived from
//     Blocks[i].
//   - OpLoad: Args[0] is the address; OpStore: Args[0] address, Args[1] value.
//   - OpBr: Blocks[0] is the target. OpCondBr: Args[0] is the condition,
//     Blocks[0] the taken target, Blocks[1] the fall-through.
//   - OpRet: Args is empty for a void return, else Args[0] is the value.
type Instr struct {
	Op     Op
	Type   Type
	Dst    Reg
	Args   []Reg
	Imm    int64
	Blocks []*Block
	// Callee is the called function for OpCall instructions.
	Callee *Function
}

// Uses calls fn for each register the instruction reads.
func (in *Instr) Uses(fn func(Reg)) {
	for _, a := range in.Args {
		if a != NoReg {
			fn(a)
		}
	}
}

// Block is a basic block: a straight-line sequence of instructions ending in
// exactly one terminator.
type Block struct {
	Name   string
	Index  int // position within Function.Blocks, assigned by Finish
	Instrs []*Instr

	// Preds is the list of predecessor blocks, computed by Function.Finish.
	Preds []*Block
}

// Term returns the block terminator, or nil if the block is empty or
// unterminated (only possible before verification).
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Succs returns the successor blocks in terminator order (taken target
// first for conditional branches).
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Blocks
}

// Phis returns the phi instructions at the top of the block.
func (b *Block) Phis() []*Instr {
	var n int
	for n < len(b.Instrs) && b.Instrs[n].Op == OpPhi {
		n++
	}
	return b.Instrs[:n]
}

// NumOps returns the number of non-terminator instructions in the block.
// This is the operation count used throughout path weighting: terminators
// are control transfers that an accelerator elides, while everything else
// (including phis, which become selects or cancel entirely) is real work.
func (b *Block) NumOps() int {
	n := len(b.Instrs)
	if t := b.Term(); t != nil {
		n--
	}
	return n
}

func (b *Block) String() string { return b.Name }

// Function is a single-entry control-flow graph of basic blocks.
//
// Parameters occupy registers 1..NumParams. All register types are recorded
// in RegType, indexed by register number (index 0 is unused).
type Function struct {
	Name    string
	Params  []Type
	Blocks  []*Block // Blocks[0] is the entry block
	RegType []Type   // RegType[r] is the type of register r; len = NumRegs+1

	blockByName map[string]*Block
}

// NumRegs returns the number of virtual registers (excluding NoReg).
func (f *Function) NumRegs() int { return len(f.RegType) - 1 }

// NumParams returns the number of parameters.
func (f *Function) NumParams() int { return len(f.Params) }

// Param returns the register holding parameter i (0-based).
func (f *Function) Param(i int) Reg { return Reg(i + 1) }

// Entry returns the entry block.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// BlockByName returns the block with the given name, or nil.
func (f *Function) BlockByName(name string) *Block {
	if f.blockByName == nil {
		return nil
	}
	return f.blockByName[name]
}

// Finish recomputes derived CFG state: block indices, the name lookup table,
// and predecessor lists. It must be called after any structural mutation and
// before analyses run. Builders and the parser call it automatically.
func (f *Function) Finish() {
	byName := make(map[string]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		byName[b.Name] = b
	}
	f.link(byName)
}

// link is Finish with the name lookup table already built.
func (f *Function) link(byName map[string]*Block) {
	f.blockByName = byName
	for i, b := range f.Blocks {
		b.Index = i
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}

// NumInstrs returns the static instruction count across all blocks.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ReturnType reports the type returned by the function and whether it
// returns a value at all (false = void). Mixed-type returns are rejected by
// the verifier, so inspecting any one returning block suffices.
func (f *Function) ReturnType() (Type, bool) {
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == OpRet && len(t.Args) == 1 {
			return t.Type, true
		}
	}
	return I64, false
}

// Module is an ordered collection of functions.
type Module struct {
	Funcs []*Function
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Add appends a function to the module.
func (m *Module) Add(f *Function) { m.Funcs = append(m.Funcs, f) }

// CloneFunction returns a deep copy of f: fresh blocks and instructions
// with identical structure, register numbering, and call targets (callees
// are shared, not cloned). The clone is finished and ready for analysis;
// transformations can mutate it without touching the original.
func CloneFunction(f *Function) *Function {
	out := &Function{
		Name:    f.Name,
		Params:  append([]Type(nil), f.Params...),
		RegType: append([]Type(nil), f.RegType...),
	}
	blockMap := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{Name: b.Name}
		blockMap[b] = nb
		out.Blocks = append(out.Blocks, nb)
	}
	for _, b := range f.Blocks {
		nb := blockMap[b]
		for _, in := range b.Instrs {
			ni := &Instr{Op: in.Op, Type: in.Type, Dst: in.Dst, Imm: in.Imm, Callee: in.Callee}
			ni.Args = append(ni.Args, in.Args...)
			for _, t := range in.Blocks {
				ni.Blocks = append(ni.Blocks, blockMap[t])
			}
			nb.Instrs = append(nb.Instrs, ni)
		}
	}
	out.Finish()
	return out
}

// ModuleOf returns a module containing f and every function it
// (transitively) calls, in deterministic order with f first. Printing this
// module produces parseable .nir source even for call-bearing functions.
func ModuleOf(f *Function) *Module {
	m := &Module{}
	seen := map[*Function]bool{}
	var add func(fn *Function)
	add = func(fn *Function) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		m.Add(fn)
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpCall {
					add(in.Callee)
				}
			}
		}
	}
	add(f)
	return m
}
