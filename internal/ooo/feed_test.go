package ooo

import (
	"needle/internal/ir"
	"needle/internal/oracle"
)

// The per-instruction feed: the reference FeedBlock is tested against, and
// (through Hooks) the hooked interpreter's feed in this package's tests.
// Production feeds whole timing packets only.

// Instruction classes of the per-instruction feed.
const (
	classInt = iota
	classFP
	classMem
)

// opClass maps an opcode to its class, sized as opLat is.
var opClass [64]uint8

func init() {
	for op := ir.Op(0); op <= ir.OpRet; op++ {
		switch {
		case op.IsMemory():
			opClass[op] = classMem
		case op.IsFloat():
			opClass[op] = classFP
		}
	}
}

// Feed schedules one dynamic instruction. addr is the effective word
// address for memory operations (ignored otherwise).
func (m *Model) Feed(in *ir.Instr, addr int64) {
	// fetch is count/Width, maintained incrementally to keep the integer
	// division out of the per-instruction path.
	fetch := m.fetch
	m.fetchRem++
	if m.fetchRem == int64(m.cfg.Width) {
		m.fetchRem = 0
		m.fetch++
	}
	m.count++
	m.Mix.Total++

	// ROB constraint: this instruction needs the slot of the instruction
	// ROB-entries older, which must have completed.
	slot := m.robHead
	windowReady := m.rob[slot]

	ready := fetch
	if windowReady > ready {
		ready = windowReady
	}
	if m.stallUntil > ready {
		ready = m.stallUntil
	}
	regReady := m.regReady
	for _, r := range in.Args {
		if r != ir.NoReg && int(r) < len(regReady) && regReady[r] > ready {
			ready = regReady[r]
		}
	}

	var lat int64
	var pool []int64
	switch opClass[in.Op] {
	case classMem:
		m.Mix.Mem++
		lat = m.cache.Access(addr)
		pool = m.aluFree // address generation occupies an ALU slot
	case classFP:
		m.Mix.FP++
		lat = opLat[in.Op]
		pool = m.fpuFree
	default:
		m.Mix.Int++
		lat = opLat[in.Op]
		pool = m.aluFree
	}

	// Pick the earliest-free unit (units are pipelined: busy for 1 cycle).
	best, bestT := 0, pool[0]
	for i := 1; i < len(pool); i++ {
		if t := pool[i]; t < bestT {
			best, bestT = i, t
		}
	}
	issue := ready
	if bestT > issue {
		issue = bestT
	}
	pool[best] = issue + 1
	finish := issue + lat

	if in.Op.HasDest() && int(in.Dst) < len(m.regReady) {
		m.regReady[in.Dst] = finish
	}
	m.rob[slot] = finish
	m.robHead = slot + 1
	if m.robHead == len(m.rob) {
		m.robHead = 0
	}
	if finish > m.lastDone {
		m.lastDone = finish
	}
	if in.Op == ir.OpCondBr {
		m.lastBranch = finish
	}
}

// Hooks returns interpreter hooks that stream execution into the model one
// instruction at a time: the Mem event's address is held for the Instr
// event of the same memory operation.
func (m *Model) Hooks() *oracle.Hooks {
	var pend int64
	return &oracle.Hooks{
		Mem:   func(_ *ir.Instr, addr int64) { pend = addr },
		Instr: func(in *ir.Instr) { m.Feed(in, pend) },
		Edge: func(from, to *ir.Block) {
			t := from.Term()
			if t == nil || t.Op != ir.OpCondBr {
				return
			}
			m.NoteBranch(t.Blocks[0] == to)
		},
	}
}
