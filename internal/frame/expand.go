package frame

import (
	"fmt"

	"needle/internal/ir"
)

// Expand implements BL-Path target expansion (Section IV-A): when the path
// trace shows the same path (or a strongly biased successor) executing
// back-to-back, Needle sequences multiple path instances into one larger
// offload unit, reducing host interactions. The expanded frame contains
// `unroll` copies of the original dataflow graph, with each copy's
// loop-carried inputs wired to the previous copy's outputs — the dataflow
// equivalent of unrolling the path across the loop back edge.
//
// Guards, stores, and undo bookkeeping scale with the unroll factor; the
// live-in/live-out interface does not (intermediate carried values stay on
// the fabric). A guard failure in any copy rolls the whole unit back, which
// is why expansion is only applied to paths with high sequence bias
// (Table III).
func Expand(fr *Frame, unroll int) (*Frame, error) {
	if unroll < 1 {
		return nil, fmt.Errorf("frame: unroll factor %d out of range", unroll)
	}
	if unroll == 1 {
		return fr, nil
	}
	n := len(fr.Ops)
	out := &Frame{
		Region:        fr.Region,
		LiveIn:        fr.LiveIn,
		LiveOut:       fr.LiveOut,
		Guards:        fr.Guards * unroll,
		Selects:       fr.Selects * unroll,
		Cancelled:     fr.Cancelled * unroll,
		Stores:        fr.Stores * unroll,
		UndoOps:       fr.UndoOps * unroll,
		HoistedMemOps: fr.HoistedMemOps * unroll,
		Unroll:        unroll,
		opts:          fr.opts,
	}
	// The carried values the host reads back come from the last copy.
	if len(fr.Carried) > 0 {
		out.Carried = make([]CarriedPair, len(fr.Carried))
		for i, cp := range fr.Carried {
			if cp.NextOp >= 0 {
				cp.NextOp += (unroll - 1) * n
			}
			out.Carried[i] = cp
		}
	}

	for c := 0; c < unroll; c++ {
		base := c * n
		for _, op := range fr.Ops {
			nop := Op{Instr: op.Instr, Block: op.Block, Guard: op.Guard, Select: op.Select}
			for _, d := range op.Deps {
				nop.Deps = append(nop.Deps, base+d)
			}
			if c > 0 {
				// Wire carried-phi uses to the previous copy's producers.
				op.Instr.Uses(func(r ir.Reg) {
					if prev := fr.carriedProducer(r); prev >= 0 {
						nop.Deps = append(nop.Deps, (c-1)*n+prev)
					}
				})
			}
			out.Ops = append(out.Ops, nop)
		}
	}
	return out, nil
}

// carriedProducer returns the op (within one copy) producing the next value
// of carried phi r, or -1 when r is not carried or has no producing op.
// When several pairs carry r, the last one with a producer wins.
func (fr *Frame) carriedProducer(r ir.Reg) int {
	prev := -1
	for _, cp := range fr.Carried {
		if cp.Phi == r && cp.NextOp >= 0 {
			prev = cp.NextOp
		}
	}
	return prev
}

// IterationsPerInvocation returns how many path instances one invocation of
// the frame executes (1 for unexpanded frames).
func (fr *Frame) IterationsPerInvocation() int {
	if fr.Unroll < 1 {
		return 1
	}
	return fr.Unroll
}
