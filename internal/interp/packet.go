// Timing packets: the unit of a timed run's feed to the host model. A
// packet is the timing model's view of one planned basic block — opcode,
// unit class, destination register, and source registers of every dynamic
// instruction the block issues (phi-move prefix, body, terminator) — laid
// out as a dense array of compact fixed-size entries. BuildPlan derives one
// packet per block (backed by per-plan arenas, so hot blocks walk
// contiguous memory), and the capture loop hands the whole block to the
// timing model in a single Timing.FeedBlock call: the model walks flat
// entries instead of chasing *ir.Instr pointers.
package interp

import "needle/internal/ir"

// Timing-packet unit classes. They partition opcodes exactly as the host
// timing model's per-instruction dispatch does: memory ops take their
// latency from the cache model, float ops issue to FPUs, everything else
// (compares, moves, branches included) to ALUs.
const (
	TimingClassInt = iota // integer ALU ops
	TimingClassFP         // floating-point ops
	TimingClassMem        // loads and stores
)

// TimingEntry is one dynamic instruction in a packet, packed into 16 bytes
// so the scheduling loop touches one cache line per couple of entries. The
// first two source registers are inlined (Src0/Src1, the common case for
// binary ops) with absent slots holding ir.NoReg (register 0) — NoReg is
// never a destination in verified IR, so its ready time is always zero and
// consumers can read both slots unconditionally instead of branching on the
// source count. NSrc is min(count, 3); entries with three or more sources
// (phi moves with many incoming values) spill the full list to the packet's
// SrcOff/Srcs overflow arrays.
type TimingEntry struct {
	Op    uint8 // ir.Op (latency-table index)
	Class uint8 // TimingClass*
	NSrc  uint8 // min(number of sources, 3); 3 means "consult SrcOff/Srcs"
	Dst   int32 // destination register; -1 when the entry defines none
	Src0  int32 // first source register (ir.NoReg when absent)
	Src1  int32 // second source register (ir.NoReg when absent)
}

// TimingPacket is the flattened dynamic-instruction sequence of one planned
// block. Entries appear in feed order: the phi-move prefix, the body, then
// the terminator. Packets are immutable after construction and safe to share
// across concurrent runs (plans are cached per function).
//
// A conditional branch may only appear as the final entry — the invariant
// verified IR guarantees — which lets consumers track the model's
// last-branch timestamp without a per-entry opcode test.
type TimingPacket struct {
	Ent    []TimingEntry
	SrcOff []int32 // len(Ent)+1 offsets into Srcs, one span per entry
	Srcs   []int32 // flattened source registers (NoReg pre-filtered)
	NumMem int     // number of TimingClassMem entries (address-scratch size)
	CondBr bool    // the final entry is a conditional branch
}

// NewTimingPacket compiles an instruction sequence into a packet. The
// sequence must list the instructions in dynamic feed order; phi entries
// carry every incoming register as a source, exactly as the per-instruction
// feed exposes them. BuildPlan lays its blocks' packets out the same way,
// in windows of per-plan arenas.
func NewTimingPacket(instrs []*ir.Instr) *TimingPacket {
	pk := &TimingPacket{}
	fillPacket(pk, instrs, make([]TimingEntry, len(instrs)), make([]int32, len(instrs)+1), make([]int32, packetSrcs(instrs)))
	return pk
}

// packetSrcs returns the number of source registers a packet over instrs
// holds.
func packetSrcs(instrs []*ir.Instr) int {
	n := 0
	for _, in := range instrs {
		for _, r := range in.Args {
			if r != ir.NoReg {
				n++
			}
		}
	}
	return n
}

// fillPacket lays instrs out as pk in the given storage: ent of
// len(instrs), off of len(instrs)+1 and srcs of packetSrcs(instrs).
func fillPacket(pk *TimingPacket, instrs []*ir.Instr, ent []TimingEntry, off, srcs []int32) {
	pk.Ent, pk.SrcOff, pk.Srcs = ent, off, srcs
	ns := 0
	for i, in := range instrs {
		e := &ent[i]
		e.Op = uint8(in.Op)
		switch {
		case in.Op.IsMemory():
			e.Class = TimingClassMem
			pk.NumMem++
		case in.Op.IsFloat():
			e.Class = TimingClassFP
		default:
			e.Class = TimingClassInt
		}
		e.Dst = -1
		if in.Op.HasDest() {
			e.Dst = int32(in.Dst)
		}
		off[i] = int32(ns)
		for _, r := range in.Args {
			if r != ir.NoReg {
				srcs[ns] = int32(r)
				ns++
			}
		}
		switch first := int(off[i]); ns - first {
		case 0:
		case 1:
			e.NSrc = 1
			e.Src0 = srcs[first]
		case 2:
			e.NSrc = 2
			e.Src0, e.Src1 = srcs[first], srcs[first+1]
		default:
			e.NSrc = 3
			e.Src0, e.Src1 = srcs[first], srcs[first+1]
		}
	}
	off[len(instrs)] = int32(ns)
	pk.CondBr = len(instrs) > 0 && instrs[len(instrs)-1].Op == ir.OpCondBr
}

// Len returns the number of entries in the packet.
func (pk *TimingPacket) Len() int { return len(pk.Ent) }
