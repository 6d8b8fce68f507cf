package frame

import (
	"fmt"
	"math"
	"slices"

	"needle/internal/ir"
	"needle/internal/region"
	"needle/internal/wire"
)

// OpData is one frame op with its instruction referenced positionally:
// the block's index within the function and the instruction's index within
// that block. Positional references survive serialization because the .nir
// round trip preserves block order and per-block instruction order exactly.
type OpData struct {
	Block  int // ir.Block.Index within the frame's function
	Instr  int // index into that block's Instrs
	Deps   []int
	Guard  bool
	Select bool
}

// Data is the pure serializable core of a Frame: every op positionally
// encoded plus the counters, interface registers, and construction options.
// The Region is deliberately absent — a frame is rehydrated against the
// region its braid decodes to, via FromData.
type Data struct {
	Ops     []OpData
	LiveIn  []ir.Reg
	LiveOut []ir.Reg

	Guards        int
	Selects       int
	Cancelled     int
	Stores        int
	UndoOps       int
	Predicates    int
	HoistedMemOps int

	Carried []CarriedPair
	Def     map[ir.Reg]int
	Unroll  int
	Opts    Options
}

// Data extracts the serializable core of the frame.
func (fr *Frame) Data() *Data {
	d := &Data{
		Ops:           make([]OpData, len(fr.Ops)),
		LiveIn:        fr.LiveIn,
		LiveOut:       fr.LiveOut,
		Guards:        fr.Guards,
		Selects:       fr.Selects,
		Cancelled:     fr.Cancelled,
		Stores:        fr.Stores,
		UndoOps:       fr.UndoOps,
		Predicates:    fr.Predicates,
		HoistedMemOps: fr.HoistedMemOps,
		Carried:       fr.Carried,
		Def:           fr.Def,
		Unroll:        fr.Unroll,
		Opts:          fr.opts,
	}
	for i, op := range fr.Ops {
		od := OpData{Block: op.Block.Index, Deps: op.Deps, Guard: op.Guard, Select: op.Select}
		od.Instr = -1
		for j, in := range op.Block.Instrs {
			if in == op.Instr {
				od.Instr = j
				break
			}
		}
		d.Ops[i] = od
	}
	return d
}

// BuildOptions returns the options the frame was constructed with (after
// normalization — defaults filled, predicated overrides applied).
func (fr *Frame) BuildOptions() Options { return fr.opts }

// FromData rehydrates a frame against r, re-resolving every positional op
// reference to the region function's blocks and instructions. r must be the
// same region (structurally) the frame was built from.
func FromData(r *region.Region, d *Data) (*Frame, error) {
	fr := &Frame{
		Region:        r,
		Ops:           make([]Op, len(d.Ops)),
		LiveIn:        d.LiveIn,
		LiveOut:       d.LiveOut,
		Guards:        d.Guards,
		Selects:       d.Selects,
		Cancelled:     d.Cancelled,
		Stores:        d.Stores,
		UndoOps:       d.UndoOps,
		Predicates:    d.Predicates,
		HoistedMemOps: d.HoistedMemOps,
		Carried:       d.Carried,
		Def:           d.Def,
		Unroll:        d.Unroll,
		opts:          d.Opts,
	}
	for i, od := range d.Ops {
		if od.Block < 0 || od.Block >= len(r.F.Blocks) {
			return nil, fmt.Errorf("frame: op %d references block %d of %d", i, od.Block, len(r.F.Blocks))
		}
		b := r.F.Blocks[od.Block]
		if od.Instr < 0 || od.Instr >= len(b.Instrs) {
			return nil, fmt.Errorf("frame: op %d references instr %d of %d in %s", i, od.Instr, len(b.Instrs), b.Name)
		}
		for _, dep := range od.Deps {
			if dep < 0 || dep >= i {
				return nil, fmt.Errorf("frame: op %d has forward or negative dep %d", i, dep)
			}
		}
		fr.Ops[i] = Op{Instr: b.Instrs[od.Instr], Block: b, Deps: od.Deps, Guard: od.Guard, Select: od.Select}
	}
	nregs := r.F.NumRegs()
	bad := func(reg ir.Reg) bool { return reg < 0 || int(reg) > nregs } // registers are 1..NumRegs
	for _, regs := range [...][]ir.Reg{d.LiveIn, d.LiveOut} {
		if i := slices.IndexFunc(regs, bad); i >= 0 {
			return nil, fmt.Errorf("frame: interface register %s out of range for %s", regs[i], r.F.Name)
		}
	}
	for _, c := range d.Carried {
		if bad(c.Phi) || bad(c.Next) {
			return nil, fmt.Errorf("frame: carried pair %s/%s out of range for %s", c.Phi, c.Next, r.F.Name)
		}
	}
	for reg, idx := range d.Def {
		if bad(reg) || idx < 0 || idx >= len(d.Ops) {
			return nil, fmt.Errorf("frame: register %s defined by op %d of %d", reg, idx, len(d.Ops))
		}
	}
	return fr, nil
}

// Append appends d in its positional layout (docs/PIPELINE.md): the ops,
// each as its block and instruction index, its deps and its two flags;
// the live-in and live-out registers; the seven counters; the carried
// pairs; Def as (register, op) pairs in register order; the unroll factor;
// and the options. Counts, indices, deps and registers are uvarints, other
// integers varints.
func (d *Data) Append(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(d.Ops)))
	for _, op := range d.Ops {
		b = wire.AppendUvarint(b, uint64(op.Block))
		b = wire.AppendVarint(b, int64(op.Instr))
		b = wire.AppendUints(b, op.Deps)
		b = wire.AppendBool(b, op.Guard)
		b = wire.AppendBool(b, op.Select)
	}
	b = wire.AppendUints(b, d.LiveIn)
	b = wire.AppendUints(b, d.LiveOut)
	for _, v := range [...]int{d.Guards, d.Selects, d.Cancelled, d.Stores, d.UndoOps, d.Predicates, d.HoistedMemOps} {
		b = wire.AppendVarint(b, int64(v))
	}
	b = wire.AppendUvarint(b, uint64(len(d.Carried)))
	for _, c := range d.Carried {
		b = wire.AppendUvarint(b, uint64(c.Phi))
		b = wire.AppendUvarint(b, uint64(c.Next))
	}
	regs := make([]ir.Reg, 0, len(d.Def))
	for reg := range d.Def {
		regs = append(regs, reg)
	}
	slices.Sort(regs)
	b = wire.AppendUvarint(b, uint64(len(regs)))
	for _, reg := range regs {
		b = wire.AppendUvarint(b, uint64(reg))
		b = wire.AppendVarint(b, int64(d.Def[reg]))
	}
	b = wire.AppendVarint(b, int64(d.Unroll))
	b = wire.AppendUvarint(b, uint64(d.Opts.Placement))
	b = wire.AppendUvarint(b, uint64(d.Opts.Ordering))
	return wire.AppendVarint(b, int64(d.Opts.UndoOpsPerStore))
}

// ReadData reads the layout Append writes. Empty slices and maps decode as
// nil. The result is meaningful only when r has not failed; FromData checks
// its references against the region.
func ReadData(r *wire.Reader) *Data {
	d := &Data{}
	if n := r.Count(); n > 0 {
		d.Ops = make([]OpData, n)
		for i := range d.Ops {
			op := &d.Ops[i]
			op.Block = r.Index(math.MaxInt)
			op.Instr = r.Int()
			op.Deps = wire.Uints[int](r, math.MaxInt)
			op.Guard = r.Bool()
			op.Select = r.Bool()
		}
	}
	d.LiveIn = wire.Uints[ir.Reg](r, math.MaxInt32)
	d.LiveOut = wire.Uints[ir.Reg](r, math.MaxInt32)
	for _, v := range [...]*int{&d.Guards, &d.Selects, &d.Cancelled, &d.Stores, &d.UndoOps, &d.Predicates, &d.HoistedMemOps} {
		*v = r.Int()
	}
	if n := r.Count(); n > 0 {
		d.Carried = make([]CarriedPair, n)
		for i := range d.Carried {
			d.Carried[i] = CarriedPair{Phi: readReg(r), Next: readReg(r)}
		}
	}
	if n := r.Count(); n > 0 {
		d.Def = make(map[ir.Reg]int, n)
		for range n {
			reg := readReg(r)
			d.Def[reg] = r.Int()
		}
	}
	d.Unroll = r.Int()
	d.Opts.Placement = GuardPlacement(r.Index(math.MaxUint8 + 1))
	d.Opts.Ordering = MemOrdering(r.Index(math.MaxUint8 + 1))
	d.Opts.UndoOpsPerStore = r.Int()
	return d
}

func readReg(r *wire.Reader) ir.Reg { return ir.Reg(r.Index(math.MaxInt32)) }
