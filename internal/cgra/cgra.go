// Package cgra models the coarse-grained reconfigurable array accelerator
// of Table V: a 16x8 grid of function units with a 16-cycle reconfiguration
// time, cache-coherent memory access through the shared L2, and the paper's
// per-event dynamic energy constants (12 pJ per switch+link traversal,
// 8 pJ per integer FU op, 25 pJ per FP op, 5 pJ per latch).
//
// A software frame maps onto the fabric as a spatial dataflow graph. A
// single invocation costs the resource-constrained schedule length plus
// live-value marshalling; *consecutive* invocations of a resident frame
// pipeline at the initiation interval (II) — the larger of the resource
// bound and the loop-carried recurrence bound — which is what makes
// coarse-grained offload profitable (Sections IV-A and VI-A). Energy
// accrues per executed operation and routed operand with no instruction
// fetch; operations whose predicates are off burn only latch (gating)
// energy.
package cgra

import (
	"slices"

	"needle/internal/frame"
	"needle/internal/ir"
)

// Config describes the fabric.
type Config struct {
	Rows, Cols     int   // FU grid (16x8)
	ReconfigCycles int64 // one-time cost to load a frame's configuration
	MemPorts       int   // memory operations issued per cycle
	MemLatency     int64 // effective accelerator load-use latency: the fabric
	// streams through small coherent line buffers in front of the shared L2,
	// so the common case lands between an L1 hit and a full L2 round trip
	TransferRate int // live values marshalled per cycle at entry/exit

	// UniformRouting charges every operand edge exactly one switch+link
	// traversal instead of its placed Manhattan hop count. Kept for the
	// routing ablation; the default uses the placement-derived hops.
	UniformRouting bool

	// Dynamic energy, picojoules.
	SwitchLinkPJ float64 // per switch+link hop an operand traverses
	IntPJ        float64 // per integer FU op
	FPPJ         float64 // per FP op
	LatchPJ      float64 // per op result latched; also the gating cost of a
	// predicated-off op
	MemPJ      float64 // L2-side energy per accelerator memory access
	TransferPJ float64 // per live value moved between host and fabric
}

// DefaultConfig returns the Table V CGRA.
func DefaultConfig() Config {
	return Config{
		Rows: 16, Cols: 8,
		ReconfigCycles: 16,
		MemPorts:       4,
		MemLatency:     16,
		TransferRate:   2,
		SwitchLinkPJ:   12,
		IntPJ:          8,
		FPPJ:           25,
		LatchPJ:        5,
		MemPJ:          34, // L2 bank access
		TransferPJ:     18, // network + L2 buffering per live value
	}
}

// FULatency returns the latency of an op on a fabric function unit
// (memory ops take Config.MemLatency instead).
func FULatency(op ir.Op) int64 {
	switch op {
	case ir.OpMul:
		return 3
	case ir.OpDiv, ir.OpRem:
		return 12
	case ir.OpFAdd, ir.OpFSub:
		return 4
	case ir.OpFMul:
		return 5
	case ir.OpFDiv, ir.OpSqrt:
		return 12
	case ir.OpExp, ir.OpLog:
		return 20
	case ir.OpSIToFP, ir.OpFPToSI:
		return 4
	}
	return 1
}

// Sched is the mapping of one frame onto the fabric.
type Sched struct {
	Frame *frame.Frame

	// DataflowCycles is the resource-constrained schedule length of one
	// invocation's dataflow graph, memory latencies included.
	DataflowCycles int64
	// TransferIn/TransferOut are the live-value marshalling cycles paid at
	// the start and end of a resident run.
	TransferIn, TransferOut int64
	// UndoCycles is undo-log port pressure not overlapped with dataflow.
	UndoCycles int64
	// II is the initiation interval: the cycles between consecutive
	// pipelined invocations of the resident frame.
	II int64
	// AvgHops is the mean operand route length from the spatial placement.
	AvgHops float64
	// RecurrenceII and ResourceII are the two components of II.
	RecurrenceII, ResourceII int64

	// OpPJ is the average energy of one *executed* operation (FU + latch +
	// routed operands). GatePJ is the cost of a predicated-off op.
	OpPJ   float64
	GatePJ float64
	// TransferPJ is the marshalling energy per resident run; UndoPJ the
	// log-write energy per invocation; RollbackPJ the log-restore energy
	// per failure.
	TransferPJ float64
	UndoPJ     float64
	RollbackPJ float64
	// RollbackCycles is the time to restore the undo log on failure.
	RollbackCycles int64
}

// cycleUse counts the ops issued in one cycle and, of them, the memory ops.
type cycleUse struct{ fu, mem int32 }

// Schedule maps a frame onto the fabric configuration. A config with no
// function units or no memory ports has no schedule; sim.Config.Check
// rejects one before it gets here.
func Schedule(fr *frame.Frame, cfg Config) *Sched {
	if cfg.Rows == 0 {
		cfg = DefaultConfig()
	}
	capacity := cfg.Rows * cfg.Cols
	s := &Sched{Frame: fr}

	// finish[i] is op i's completion cycle; depth is recurrenceDepth's
	// table, shared by the carried pairs; pos[i] is op i's FU and used the
	// fabric's occupancy bit set, place's tables.
	n := len(fr.Ops)
	times := make([]int64, 3*n+(capacity+63)/64)
	finish, depth, pos, used := times[:n:n], times[n:2*n:2*n], times[2*n:3*n:3*n], times[3*n:]
	// use[c] is the reservation of cycle c, dense by cycle and grown only
	// as the schedule reaches later cycles.
	use := make([]cycleUse, 0, n+1)

	// Spatial placement decides how far operands travel.
	if cfg.UniformRouting {
		s.AvgHops = 1
	} else {
		s.AvgHops, _ = place(fr, cfg.Rows, cfg.Cols, pos, used)
	}
	hops := func(i int, dep int) float64 {
		if cfg.UniformRouting {
			return 1
		}
		a, b := int(pos[dep]), int(pos[i])
		ar, ac := a/cfg.Cols, a%cfg.Cols
		br, bc := b/cfg.Cols, b%cfg.Cols
		d := ar - br
		if d < 0 {
			d = -d
		}
		e := ac - bc
		if e < 0 {
			e = -e
		}
		if d+e == 0 {
			return 0.5 // same unit: local forwarding latch
		}
		return float64(d + e)
	}

	var makespan int64
	var totalOpPJ float64
	memOps := 0
	for i, op := range fr.Ops {
		var ready int64
		for _, d := range op.Deps {
			if finish[d] > ready {
				ready = finish[d]
			}
		}
		isMem := op.Instr.Op.IsMemory()
		// The first cycle from ready with a free unit (and a free port for
		// memory); a cycle past the table is unreserved.
		at := ready
		for ; at < int64(len(use)); at++ {
			if u := use[at]; int(u.fu) < capacity && (!isMem || int(u.mem) < cfg.MemPorts) {
				break
			}
		}
		if at >= int64(len(use)) {
			old := len(use)
			use = slices.Grow(use, int(at)+1-old)[:at+1]
			clear(use[old:])
		}
		use[at].fu++
		if isMem {
			use[at].mem++
			memOps++
		}
		lat := FULatency(op.Instr.Op)
		if isMem {
			lat = cfg.MemLatency
		}
		finish[i] = at + lat
		if finish[i] > makespan {
			makespan = finish[i]
		}

		var fu float64
		switch {
		case isMem:
			fu = cfg.MemPJ
		case op.Instr.Op.IsFloat():
			fu = cfg.FPPJ
		default:
			fu = cfg.IntPJ
		}
		routePJ := 0.0
		for _, d := range op.Deps {
			routePJ += hops(i, d) * cfg.SwitchLinkPJ
		}
		totalOpPJ += fu + cfg.LatchPJ + routePJ
	}
	s.DataflowCycles = makespan
	if len(fr.Ops) > 0 {
		s.OpPJ = totalOpPJ / float64(len(fr.Ops))
	}
	s.GatePJ = cfg.LatchPJ

	// Initiation interval: the recurrence bound is the longest dependence
	// *cycle* through a loop-carried value — the chain from a carried phi's
	// uses to the op producing that same phi's next value. Chains that start
	// at one carried value and end at a different one are forward paths and
	// pipeline freely, so each carried pair is measured independently.
	s.RecurrenceII = 1
	for _, cp := range fr.Carried {
		if d := recurrenceDepth(fr, cfg, cp, depth); d > s.RecurrenceII {
			s.RecurrenceII = d
		}
	}
	s.ResourceII = 1
	if capacity > 0 {
		if v := int64((len(fr.Ops) + capacity - 1) / capacity); v > s.ResourceII {
			s.ResourceII = v
		}
	}
	if cfg.MemPorts > 0 {
		if v := int64((memOps + fr.UndoOps + cfg.MemPorts - 1) / cfg.MemPorts); v > s.ResourceII {
			s.ResourceII = v
		}
	}
	s.II = s.RecurrenceII
	if s.ResourceII > s.II {
		s.II = s.ResourceII
	}
	// Per-invocation host synchronization floor: even fully pipelined
	// invocations exchange completion/guard status with the host through
	// the shared L2 queue.
	if s.II < 6 {
		s.II = 6
	}

	// Undo-log bookkeeping shares the memory ports.
	if fr.UndoOps > 0 {
		s.UndoCycles = int64((fr.UndoOps + cfg.MemPorts - 1) / cfg.MemPorts)
		s.UndoPJ = float64(fr.UndoOps) * cfg.MemPJ
	}

	rate := cfg.TransferRate
	if rate <= 0 {
		rate = 1
	}
	s.TransferIn = int64((len(fr.LiveIn) + rate - 1) / rate)
	s.TransferOut = int64((len(fr.LiveOut) + rate - 1) / rate)
	s.TransferPJ = float64(len(fr.LiveIn)+len(fr.LiveOut)) * cfg.TransferPJ

	s.RollbackCycles = int64(fr.Stores) * cfg.MemLatency
	s.RollbackPJ = float64(fr.Stores) * cfg.MemPJ
	return s
}

// recurrenceDepth returns the latency of the dependence cycle through one
// carried pair: the longest chain starting at a use of cp.Phi and ending at
// the op that defines cp.Next (0 when the next value does not depend on the
// phi, i.e. no true cycle). depth is a table of one entry per op, which it
// overwrites.
func recurrenceDepth(fr *frame.Frame, cfg Config, cp frame.CarriedPair, depth []int64) int64 {
	target := cp.NextOp
	if target < 0 {
		return 0
	}
	for i := range depth {
		depth[i] = -1
	}
	for i, op := range fr.Ops {
		d := int64(-1)
		op.Instr.Uses(func(r ir.Reg) {
			if r == cp.Phi {
				d = 0
			}
		})
		for _, dep := range op.Deps {
			if depth[dep] >= 0 && depth[dep] > d {
				d = depth[dep]
			}
		}
		if d >= 0 {
			lat := FULatency(op.Instr.Op)
			if op.Instr.Op.IsMemory() {
				lat = cfg.MemLatency
			}
			depth[i] = d + lat
		}
	}
	if depth[target] < 0 {
		return 0
	}
	return depth[target]
}

// InvokeCycles returns the latency of one cold (non-pipelined) invocation,
// excluding reconfiguration.
func (s *Sched) InvokeCycles() int64 {
	return s.TransferIn + s.DataflowCycles + s.UndoCycles + s.TransferOut
}

// FailCycles returns the latency wasted by a failed invocation under the
// paper's conservative model: the failure is detected only at the end, and
// the undo log is rolled back before the host re-executes.
func (s *Sched) FailCycles() int64 {
	return s.InvokeCycles() + s.RollbackCycles
}

// InvokeEnergyPJ returns the energy of one successful invocation that
// executed execOps of the frame's operations (the rest are gated off), not
// counting run-level transfer energy.
func (s *Sched) InvokeEnergyPJ(execOps int64) float64 {
	total := int64(len(s.Frame.Ops))
	if execOps > total {
		execOps = total
	}
	idle := total - execOps
	return float64(execOps)*s.OpPJ + float64(idle)*s.GatePJ + s.UndoPJ
}

// FailEnergyPJ returns the energy of a failed invocation: the whole frame
// ran, plus the rollback walk of the undo log.
func (s *Sched) FailEnergyPJ() float64 {
	return s.InvokeEnergyPJ(int64(len(s.Frame.Ops))) + s.RollbackPJ
}

// ILP returns the average ops per cycle of one invocation's schedule.
func (s *Sched) ILP() float64 {
	if s.DataflowCycles == 0 {
		return 0
	}
	return float64(len(s.Frame.Ops)) / float64(s.DataflowCycles)
}
