// Package oracle holds the reference engines the differential tests check
// the production engines against: the hook-driven tree-walking interpreter
// (Run and its Hooks), which the compiled plans (interp.RunProfiled and
// interp.Exec) must match in results, steps, errors and memory; a
// Ball-Larus path profiler (the plan's path counts); a global
// branch-history register; and a hook combiner. No production binary
// imports it. It imports only ballarus, interp and ir, so the tests of
// every package above those (profile, sim, spec, irgen) can use it in
// package, and the tests of ir, interp and ballarus from an external test
// package.
package oracle

import "needle/internal/ir"

// CombineHooks merges several hook sets into one; each event fans out to
// every non-nil handler in order. Nil entries are skipped.
func CombineHooks(hooks ...*Hooks) *Hooks {
	out := &Hooks{}
	var blocks []func(*ir.Block)
	var edges []func(*ir.Block, *ir.Block)
	var instrs []func(*ir.Instr)
	var exits []func(*ir.Block)
	var mems []func(*ir.Instr, int64)
	for _, h := range hooks {
		if h == nil {
			continue
		}
		if h.Mem != nil {
			mems = append(mems, h.Mem)
		}
		if h.Block != nil {
			blocks = append(blocks, h.Block)
		}
		if h.Edge != nil {
			edges = append(edges, h.Edge)
		}
		if h.Instr != nil {
			instrs = append(instrs, h.Instr)
		}
		if h.Exit != nil {
			exits = append(exits, h.Exit)
		}
	}
	if len(blocks) > 0 {
		out.Block = func(b *ir.Block) {
			for _, fn := range blocks {
				fn(b)
			}
		}
	}
	if len(edges) > 0 {
		out.Edge = func(from, to *ir.Block) {
			for _, fn := range edges {
				fn(from, to)
			}
		}
	}
	if len(instrs) > 0 {
		out.Instr = func(in *ir.Instr) {
			for _, fn := range instrs {
				fn(in)
			}
		}
	}
	if len(exits) > 0 {
		out.Exit = func(b *ir.Block) {
			for _, fn := range exits {
				fn(b)
			}
		}
	}
	if len(mems) > 0 {
		out.Mem = func(in *ir.Instr, addr int64) {
			for _, fn := range mems {
				fn(in, addr)
			}
		}
	}
	return out
}

// HistoryTracker maintains the global branch-history shift register from
// interpreter edge events: a 1 bit is shifted in when a conditional branch
// is taken, 0 when it falls through. A capture on the compiled plan keeps
// its register in the host model instead (ooo.Model.History).
type HistoryTracker struct {
	H uint64
}

// Shift records one conditional-branch outcome: a 1 bit is shifted in for
// taken, 0 for fall-through. Hooks calls it at every conditional-branch
// edge.
func (ht *HistoryTracker) Shift(taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	ht.H = ht.H<<1 | bit
}

// Hooks returns interpreter hooks that update the history register.
func (ht *HistoryTracker) Hooks() *Hooks {
	return &Hooks{
		Edge: func(from, to *ir.Block) {
			t := from.Term()
			if t == nil || t.Op != ir.OpCondBr {
				return
			}
			ht.Shift(t.Blocks[0] == to)
		},
	}
}
