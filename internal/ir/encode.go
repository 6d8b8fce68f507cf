package ir

import (
	"errors"
	"fmt"

	"needle/internal/wire"
)

// AppendFunction appends f in its positional binary layout, in the
// conventions of package wire:
//
//   - the name, then the parameter types (0 = i64, 1 = f64);
//   - NumRegs, then the totals of blocks, instructions, operands and block
//     references, so a reader sizes each arena once;
//   - every block name as one string, then per block its name's length
//     and its instruction count;
//   - per instruction: op<<1|type as one uvarint, the type bit set only on
//     ops whose mnemonic carries a type suffix; Dst when the op defines
//     one; the operand count and registers; Imm for a const; and each
//     block reference as a block index, as many as the op fixes (one for
//     br, two for condbr, one per operand for phi, none otherwise).
//
// RegType is not stored: ReadFunction derives it, and every other
// instruction type, the way Parse does, so reading the bytes of f builds
// the function Parse(Print(f)) builds. AppendFunction refuses a function
// with a call, whose callee the layout cannot name.
func AppendFunction(b []byte, f *Function) ([]byte, error) {
	buf := wire.Buffer{B: b}
	if err := encodeFunction(&buf, f, false); err != nil {
		return nil, err
	}
	return buf.B, nil
}

// WriteFunction writes f to buf in AppendFunction's layout, except that a
// call, which AppendFunction refuses, is written with its callee's name as
// a string after its operands. That names every function a module's bytes
// depend on, which is what a content digest needs; ReadFunction cannot read
// a call back. Through a streaming buf it allocates nothing, whatever f's
// size.
func WriteFunction(buf *wire.Buffer, f *Function) error {
	return encodeFunction(buf, f, true)
}

// encodeFunction writes f's layout; callees selects WriteFunction's form.
func encodeFunction(buf *wire.Buffer, f *Function, callees bool) error {
	numRegs, nameLen, instrs, args, refs := len(f.Params), 0, 0, 0, 0
	for _, bl := range f.Blocks {
		nameLen += len(bl.Name)
		instrs += len(bl.Instrs)
		for _, in := range bl.Instrs {
			switch {
			case in.Op == OpCall && !callees:
				return fmt.Errorf("ir: %s.%s: a call has no positional form", f.Name, bl.Name)
			case len(in.Blocks) != numRefs(in.Op, len(in.Args)):
				return fmt.Errorf("ir: %s.%s: %s has %d block references", f.Name, bl.Name, in.Op, len(in.Blocks))
			}
			if in.Op.HasDest() {
				numRegs = max(numRegs, int(in.Dst))
			}
			args += len(in.Args)
			refs += len(in.Blocks)
		}
	}
	buf.String(f.Name)
	buf.Uvarint(uint64(len(f.Params)))
	for _, t := range f.Params {
		buf.Uvarint(uint64(t))
	}
	for _, n := range [...]int{numRegs, len(f.Blocks), instrs, args, refs, nameLen} {
		buf.Uvarint(uint64(n))
	}
	for _, bl := range f.Blocks {
		buf.Raw(bl.Name)
	}
	for _, bl := range f.Blocks {
		buf.Uvarint(uint64(len(bl.Name)))
		buf.Uvarint(uint64(len(bl.Instrs)))
	}
	for _, bl := range f.Blocks {
		for _, in := range bl.Instrs {
			code := uint64(in.Op) << 1
			if opNeedsTypeSuffix(in.Op) {
				code |= uint64(in.Type)
			}
			buf.Uvarint(code)
			if in.Op.HasDest() {
				buf.Uvarint(uint64(in.Dst))
			}
			buf.Uvarint(uint64(len(in.Args)))
			for _, a := range in.Args {
				buf.Uvarint(uint64(a))
			}
			if in.Op == OpConst {
				buf.Varint(in.Imm)
			}
			if in.Op == OpCall {
				buf.String(in.Callee.Name)
			}
			for _, t := range in.Blocks {
				buf.Uvarint(uint64(t.Index))
			}
		}
	}
	return nil
}

// numRefs is the number of block references an op with nargs operands
// carries.
func numRefs(op Op, nargs int) int {
	switch op {
	case OpBr:
		return 1
	case OpCondBr:
		return 2
	case OpPhi:
		return nargs
	}
	return 0
}

var errLayout = errors.New("ir: positional function totals do not match its contents")

// ReadFunction reads the layout AppendFunction writes, then finishes and
// verifies the function. The bytes are untrusted: every count is bounded
// by the bytes left and every register, op, type and block index by its
// range before anything is allocated for it (NumRegs by the cap Parse puts
// on r<N>), so hostile bytes are an error, never a panic or a huge
// allocation.
//
// The function lives in a fixed number of arenas however large it is: one
// each of blocks, instructions, instruction pointers, operand registers
// and block pointers (the function's block list, every instruction's block
// references and every block's predecessors). Each block's Instrs and
// Preds and each instruction's Args and Blocks is a window of an arena
// whose capacity equals its length, so an append by a consumer copies
// instead of overwriting its neighbour.
func ReadFunction(r *wire.Reader) (*Function, error) {
	f := &Function{Name: r.Text(), Params: wire.Uints[Type](r, int(F64)+1)}
	numRegs := r.Index(maxCanonicalReg + 1)
	nb, ni, na, nr := r.Count(), r.Count(), r.Count(), r.Count()
	names := r.Text()
	// A block takes at least two bytes, an instruction, operand or block
	// reference at least one.
	if !r.Fits(2*nb + ni + na + nr) {
		return nil, r.Err()
	}
	blocks := make([]Block, nb)
	instrs := make([]Instr, ni)
	iptrs := make([]*Instr, ni)
	regs := make([]Reg, na)
	// Predecessors are terminator references, so at most nr of them.
	bptrs := make([]*Block, nb+2*nr)
	f.Blocks = bptrs[:nb:nb]
	name, next := 0, 0
	for i := range blocks {
		bl := &blocks[i]
		f.Blocks[i] = bl
		n := r.Index(len(names) - name + 1)
		bl.Name = names[name : name+n]
		name += n
		n = r.Index(ni - next + 1)
		bl.Instrs = iptrs[next : next+n : next+n]
		next += n
	}
	if r.Err() == nil && (name != len(names) || next != ni) {
		return nil, errLayout
	}
	ra, rb := 0, nb // next free operand and block pointer
	for i := range instrs {
		if err := r.Err(); err != nil {
			return nil, err
		}
		in := &instrs[i]
		iptrs[i] = in
		code := r.Index(2 * int(opCount))
		in.Op, in.Type = Op(code>>1), Type(code&1)
		if in.Type != I64 && !opNeedsTypeSuffix(in.Op) {
			return nil, fmt.Errorf("ir: %s carries a type in its positional form", in.Op)
		}
		if in.Op.HasDest() {
			in.Dst = Reg(r.Index(numRegs + 1))
		}
		if n := r.Index(na - ra + 1); n > 0 {
			in.Args = regs[ra : ra+n : ra+n]
			for j := range in.Args {
				in.Args[j] = Reg(r.Index(numRegs + 1))
			}
			ra += n
		}
		if in.Op == OpConst {
			in.Imm = r.Varint()
		}
		if n := numRefs(in.Op, len(in.Args)); n > 0 {
			if rb+n > nb+nr {
				return nil, errLayout
			}
			in.Blocks = bptrs[rb : rb+n : rb+n]
			for j := range in.Blocks {
				in.Blocks[j] = f.Blocks[r.Index(nb)]
			}
			rb += n
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ra != na || rb != nb+nr {
		return nil, errLayout
	}
	if err := deriveTypes(f, instrs, numRegs); err != nil {
		return nil, err
	}
	// Finish appends each block's predecessors; carve each block a window
	// of exactly that many first. Block.Index counts them until Finish
	// assigns it.
	for _, bl := range f.Blocks {
		for _, s := range bl.Succs() {
			s.Index++
		}
	}
	for _, bl := range f.Blocks {
		if n := bl.Index; n > 0 {
			bl.Preds = bptrs[rb : rb : rb+n]
			rb += n
		}
	}
	f.Finish()
	if err := Verify(f); err != nil {
		return nil, err
	}
	return f, nil
}

// deriveTypes fills RegType and the type of each op without a type suffix
// as Parse does: registers from the parameters and the destinations that
// define them (I64 where nothing does), a suffixless op's type from its
// opcode, and a return's from its operand. NumRegs must be the highest
// register defined, so a function has one encoding.
func deriveTypes(f *Function, instrs []Instr, numRegs int) error {
	top := len(f.Params)
	f.RegType = make([]Type, numRegs+1)
	copy(f.RegType[1:], f.Params)
	for i := range instrs {
		in := &instrs[i]
		if !opNeedsTypeSuffix(in.Op) {
			in.Type = impliedType(in.Op)
		}
		if in.Op.HasDest() && in.Dst != NoReg {
			f.RegType[in.Dst] = in.Op.ResultType(in.Type)
			top = max(top, int(in.Dst))
		}
	}
	if top != numRegs {
		return fmt.Errorf("ir: %s stores %d registers but defines %d", f.Name, numRegs, top)
	}
	for i := range instrs {
		if in := &instrs[i]; in.Op == OpRet && len(in.Args) == 1 {
			in.Type = f.RegType[in.Args[0]]
		}
	}
	return nil
}
