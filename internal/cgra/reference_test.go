package cgra

import (
	"needle/internal/frame"
	"needle/internal/ir"
)

// referenceSchedule and referenceRecurrenceDepth are Schedule and
// recurrenceDepth as they were before the reservation tables became dense
// by cycle, kept as the oracles dense_test.go checks them against. They
// are verbatim but for their names and for reading a carried pair's
// producing op from CarriedPair.NextOp, where the old code looked the
// register up in the frame's def map.

// referenceSchedule maps a frame onto the fabric configuration.
func referenceSchedule(fr *frame.Frame, cfg Config) *Sched {
	if cfg.Rows == 0 {
		cfg = DefaultConfig()
	}
	capacity := cfg.Rows * cfg.Cols
	s := &Sched{Frame: fr}

	finish := make([]int64, len(fr.Ops))
	fuUsed := make(map[int64]int)
	memUsed := make(map[int64]int)

	// Spatial placement decides how far operands travel.
	var placement *referencePlacement
	if !cfg.UniformRouting {
		placement = referencePlace(fr, cfg)
		s.AvgHops = placement.AvgHops
	} else {
		s.AvgHops = 1
	}
	hops := func(i int, dep int) float64 {
		if placement == nil {
			return 1
		}
		a, b := placement.Pos[dep], placement.Pos[i]
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
		at := ready
		for {
			if fuUsed[at] < capacity && (!isMem || memUsed[at] < cfg.MemPorts) {
				break
			}
			at++
		}
		fuUsed[at]++
		if isMem {
			memUsed[at]++
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
		if d := referenceRecurrenceDepth(fr, cfg, cp); d > s.RecurrenceII {
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

// referenceRecurrenceDepth returns the latency of the dependence cycle through one
// carried pair: the longest chain starting at a use of cp.Phi and ending at
// the op that defines cp.Next (0 when the next value does not depend on the
// phi, i.e. no true cycle).
func referenceRecurrenceDepth(fr *frame.Frame, cfg Config, cp frame.CarriedPair) int64 {
	target, ok := cp.NextOp, cp.NextOp >= 0
	if !ok {
		return 0
	}
	depth := make([]int64, len(fr.Ops))
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

// referencePlacement is a spatial mapping of a frame's dataflow graph onto the FU
// grid: each op gets a function unit, and operand routes are charged their
// Manhattan hop distance through the switched network. When a frame has
// more ops than FUs, units are time-multiplexed (ops wrap around the grid),
// exactly what the 16-cycle reconfigurable fabric does for large frames.
type referencePlacement struct {
	Rows, Cols int
	// Pos assigns op i the FU at (Pos[i]/Cols, Pos[i]%Cols).
	Pos []int
	// TotalHops is the summed Manhattan length of all operand routes;
	// AvgHops the mean per route (0 when there are no routes).
	TotalHops int
	AvgHops   float64
	// Multiplexed counts ops sharing an FU with an earlier op.
	Multiplexed int
}

// referencePlace maps the frame greedily: ops are placed in dependence order at the
// free FU nearest the centroid of their producers (network locality), with
// a spiral search for the nearest free slot. This mirrors the locality-
// driven placement CGRA compilers use and makes the 12 pJ "switch+link"
// energy a per-hop cost instead of a per-edge constant.
func referencePlace(fr *frame.Frame, cfg Config) *referencePlacement {
	if cfg.Rows == 0 {
		cfg = DefaultConfig()
	}
	rows, cols := cfg.Rows, cfg.Cols
	capacity := rows * cols
	p := &referencePlacement{Rows: rows, Cols: cols, Pos: make([]int, len(fr.Ops))}
	used := make([]bool, capacity)
	placed := 0
	orders := spiralOrders(rows, cols)

	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	dist := func(a, b int) int {
		ar, ac := a/cols, a%cols
		br, bc := b/cols, b%cols
		return abs(ar-br) + abs(ac-bc)
	}
	// nearestFree finds the unused FU closest to want: the first free slot
	// in the precomputed (distance, index) spiral order, which matches the
	// original full-grid scan's lowest-index-at-minimum-distance choice.
	nearestFree := func(want int) int {
		for _, s := range orders[want] {
			if !used[s] {
				return int(s)
			}
		}
		return -1
	}

	routes := 0
	for i, op := range fr.Ops {
		want := capacity / 2 // default: middle of the fabric
		if len(op.Deps) > 0 {
			var sr, sc int
			for _, d := range op.Deps {
				sr += p.Pos[d] / cols
				sc += p.Pos[d] % cols
			}
			want = (sr/len(op.Deps))*cols + sc/len(op.Deps)
		}
		slot := -1
		if placed < capacity {
			slot = nearestFree(want)
		}
		if slot < 0 {
			// Grid full: time-multiplex onto the desired unit.
			slot = want % capacity
			p.Multiplexed++
		} else {
			used[slot] = true
			placed++
		}
		p.Pos[i] = slot
		for _, d := range op.Deps {
			p.TotalHops += dist(p.Pos[d], slot)
			routes++
		}
	}
	if routes > 0 {
		p.AvgHops = float64(p.TotalHops) / float64(routes)
	}
	return p
}
