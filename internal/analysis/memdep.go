// Static memory dependence: a base+offset classifier over load/store
// address expressions. Each address register is normalized to a multiset
// of opaque base registers plus a constant offset (offsets wrap mod 2^64,
// exactly like the interpreter's address arithmetic); two accesses with
// identical bases and equal offsets must alias, identical bases and
// different offsets cannot alias, and anything else may alias.
package analysis

import "needle/internal/ir"

// AliasClass classifies a pair of memory accesses.
type AliasClass uint8

const (
	// MayAlias: the analysis cannot decide.
	MayAlias AliasClass = iota
	// MustAlias: the two addresses are provably equal in every execution.
	MustAlias
	// NoAlias: the two addresses are provably distinct in every execution.
	NoAlias
)

func (c AliasClass) String() string {
	switch c {
	case MustAlias:
		return "must"
	case NoAlias:
		return "no"
	default:
		return "may"
	}
}

// AddrForm is a normalized address expression: the sum of the values of
// Bases (a sorted multiset of registers the analysis treats as opaque)
// plus Offset, with int64 wrapping semantics. Two forms with the same
// base multiset differ by exactly (Offset1 - Offset2) in every execution.
type AddrForm struct {
	Bases  []ir.Reg
	Offset int64
}

// maxAddrBases caps the multiset size; larger expressions collapse to a
// single opaque base (the defining register itself).
const maxAddrBases = 8

// sameBases reports whether two sorted multisets are identical.
func sameBases(a, b []ir.Reg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Classify compares two normalized address forms.
func Classify(a, b AddrForm) AliasClass {
	if !sameBases(a.Bases, b.Bases) {
		return MayAlias
	}
	if a.Offset == b.Offset {
		return MustAlias
	}
	// Same opaque sum, different constant offsets: the addresses differ by
	// a non-zero constant mod 2^64, so they are never equal. (Both sides
	// wrap identically — the interpreter computes addresses with the same
	// wrapping int64 arithmetic.)
	return NoAlias
}

// MemDep holds normalized address forms for one function, indexed by the
// defining register of each address expression.
type MemDep struct {
	f     *ir.Function
	forms []AddrForm
	have  []bool
	// loadDerived marks registers whose value (transitively) depends on a
	// load result — the signature of pointer-chasing / data-dependent
	// addresses, which the Needle paper treats as self-aliasing offload
	// candidates.
	loadDerived []bool
}

// Addr returns the normalized form of the address register r.
func (md *MemDep) Addr(r ir.Reg) AddrForm {
	if r > ir.NoReg && int(r) < len(md.forms) && md.have[r] {
		return md.forms[r]
	}
	if r <= ir.NoReg {
		return AddrForm{}
	}
	return AddrForm{Bases: []ir.Reg{r}}
}

// LoadDerived reports whether r's value transitively depends on a load.
func (md *MemDep) LoadDerived(r ir.Reg) bool {
	return r > ir.NoReg && int(r) < len(md.loadDerived) && md.loadDerived[r]
}

// ClassifyRegs classifies the accesses addressed by registers a and b.
func (md *MemDep) ClassifyRegs(a, b ir.Reg) AliasClass {
	return Classify(md.Addr(a), md.Addr(b))
}

// ComputeMemDep normalizes every register's address form in f and runs the
// load-derived fixpoint. f must be verified IR; it is not mutated.
//
// Every form's Bases is a window of one of two arenas: opaque forms share
// a table holding each register once (register r's singleton is
// self[r:r+1]), and sums are merged in order into a growing arena, whose
// windows are capped so no later append can write into them.
func ComputeMemDep(f *ir.Function) *MemDep {
	n := len(f.RegType)
	flags := make([]bool, 3*n)
	md := &MemDep{
		f:           f,
		forms:       make([]AddrForm, n),
		have:        flags[:n:n],
		loadDerived: flags[n : 2*n : 2*n],
	}
	b := memDepBuilder{
		md:       md,
		def:      make([]*ir.Instr, n),
		visiting: flags[2*n:],
		self:     make([]ir.Reg, n),
	}
	for r := range b.self {
		b.self[r] = ir.Reg(r)
	}
	nAdd := 0
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op.HasDest() && in.Dst != ir.NoReg {
				b.def[in.Dst] = in
			}
			if in.Op == ir.OpAdd {
				nAdd++
			}
		}
	}
	// Most sums have one or two bases; the arena grows past that only for
	// deeper address expressions.
	b.sums = make([]ir.Reg, 0, 2*nAdd)
	for r := ir.Reg(1); int(r) < n; r++ {
		b.formOf(r)
	}

	// Load-derived fixpoint: seed with load destinations, then propagate
	// through any instruction (including phis) reading a derived register.
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpLoad && in.Dst != ir.NoReg {
				md.loadDerived[in.Dst] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				if !in.Op.HasDest() || in.Dst == ir.NoReg || md.loadDerived[in.Dst] {
					continue
				}
				for _, r := range in.Args {
					if r != ir.NoReg && md.loadDerived[r] {
						md.loadDerived[in.Dst] = true
						changed = true
						break
					}
				}
			}
		}
	}
	return md
}

// memDepBuilder normalizes address forms on demand: def maps registers to
// their defining instructions, visiting guards against cycles through phis
// (a phi is always its own opaque base, but operand recursion could still
// loop through unverified self-references), self backs the opaque forms and
// sums backs the merged base lists.
type memDepBuilder struct {
	md       *MemDep
	def      []*ir.Instr
	visiting []bool
	self     []ir.Reg
	sums     []ir.Reg
}

func (b *memDepBuilder) opaque(r ir.Reg) AddrForm {
	return AddrForm{Bases: b.self[r : r+1 : r+1]}
}

// formOf returns r's normalized form, computing and recording it first.
func (b *memDepBuilder) formOf(r ir.Reg) AddrForm {
	md := b.md
	if r <= ir.NoReg || int(r) >= len(b.def) {
		return AddrForm{}
	}
	if md.have[r] {
		return md.forms[r]
	}
	if b.visiting[r] {
		return b.opaque(r)
	}
	b.visiting[r] = true
	md.forms[r] = b.normalize(r)
	b.visiting[r] = false
	md.have[r] = true
	return md.forms[r]
}

// normalize computes r's form from its defining instruction.
func (b *memDepBuilder) normalize(r ir.Reg) AddrForm {
	in := b.def[r]
	if in == nil {
		return b.opaque(r) // parameter
	}
	switch in.Op {
	case ir.OpConst:
		if in.Type == ir.I64 {
			return AddrForm{Offset: in.Imm}
		}
	case ir.OpCopy:
		return b.formOf(in.Args[0])
	case ir.OpAdd:
		x, y := b.formOf(in.Args[0]), b.formOf(in.Args[1])
		if len(x.Bases)+len(y.Bases) <= maxAddrBases {
			return AddrForm{Bases: b.merge(x.Bases, y.Bases), Offset: x.Offset + y.Offset}
		}
	case ir.OpSub:
		x, y := b.formOf(in.Args[0]), b.formOf(in.Args[1])
		if len(y.Bases) == 0 { // x - const
			return AddrForm{Bases: x.Bases, Offset: x.Offset - y.Offset}
		}
	}
	return b.opaque(r)
}

// merge returns the sorted multiset union of two sorted base lists, as a
// capped window of the sums arena (nil when both are empty).
func (b *memDepBuilder) merge(x, y []ir.Reg) []ir.Reg {
	if len(x)+len(y) == 0 {
		return nil
	}
	start := len(b.sums)
	for len(x) > 0 && len(y) > 0 {
		if y[0] < x[0] {
			b.sums = append(b.sums, y[0])
			y = y[1:]
		} else {
			b.sums = append(b.sums, x[0])
			x = x[1:]
		}
	}
	b.sums = append(b.sums, x...)
	b.sums = append(b.sums, y...)
	return b.sums[start:len(b.sums):len(b.sums)]
}
