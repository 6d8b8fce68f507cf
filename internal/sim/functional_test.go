package sim

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/oracle"
	"needle/internal/region"
	"needle/internal/spec"
)

// FunctionalResult summarizes a functional offload run.
type FunctionalResult struct {
	Ret         uint64
	Invocations int64
	Successes   int64
	Rollbacks   int64
	FrameOps    int64 // dynamic instructions executed inside frames
	HostBlocks  int64 // blocks executed on the host path
}

// FunctionalOffload executes the program *functionally* with the offload
// target in the loop: whenever control reaches the target region's entry
// and the predictor says offload, the region runs through the speculative
// frame executor (undo log and all); a guard failure rolls memory back and
// the host re-executes the region block by block. The final return value
// and memory must be bit-identical to a pure host run — the correctness
// contract of the paper's software speculation, checked end to end below.
// A failed invocation that leaves memory other than it found it is an
// error: re-execution can hide a missed rollback when the region's stores
// write the same values again.
func FunctionalOffload(f *ir.Function, args []uint64, mem []uint64, tgt *Target, pred spec.Predictor, maxBlocks int64) (FunctionalResult, error) {
	var res FunctionalResult
	if len(args) != f.NumParams() {
		return res, fmt.Errorf("sim: %s wants %d args, got %d", f.Name, f.NumParams(), len(args))
	}
	if maxBlocks <= 0 {
		maxBlocks = 1 << 28
	}
	regs := make([]uint64, len(f.RegType))
	for i, a := range args {
		regs[f.Param(i)] = a
	}
	ht := &oracle.HistoryTracker{}
	hooks := ht.Hooks()
	var before []uint64

	cur := f.Entry()
	var prev *ir.Block
	var steps int64
	for {
		steps++
		if steps > maxBlocks {
			return res, fmt.Errorf("sim: functional offload exceeded %d blocks", maxBlocks)
		}
		if cur == tgt.Region.Entry && pred.Predict(ht.H) {
			res.Invocations++
			hist := ht.H
			// The frame receives a copy of the register file: no
			// architectural state is shared with the host (Section V), so a
			// failed frame leaks nothing — memory reverts via the undo log
			// and registers were never the frame's to change.
			fregs := append([]uint64(nil), regs...)
			before = append(before[:0], mem...)
			out, err := spec.ExecuteFrame(tgt.Frame, fregs, mem, prev)
			if err != nil {
				return res, err
			}
			res.FrameOps += int64(out.Ops)
			pred.Update(hist, out.Success)
			if out.Success {
				res.Successes++
				if out.Returned {
					res.Ret = out.Ret
					return res, nil
				}
				// Commit live values back to the host: every register the
				// region's blocks define, the entry phis it resolved
				// included. A register of a block the invocation did not
				// run still holds the host's value, so copying it back
				// changes nothing.
				for _, b := range tgt.Region.Blocks {
					for _, in := range b.Instrs {
						if in.Op.HasDest() {
							regs[in.Dst] = fregs[in.Dst]
						}
					}
				}
				prev, cur = out.Prev, out.Next
				continue
			}
			// Memory was rolled back inside ExecuteFrame; the host
			// re-executes the region (and whatever follows) block by block.
			if !slices.Equal(mem, before) {
				return res, fmt.Errorf("sim: failed invocation %d left memory changed", res.Invocations)
			}
			res.Rollbacks++
		}
		next, ret, returned, err := stepBlock(f, cur, prev, regs, mem, hooks)
		if err != nil {
			return res, err
		}
		res.HostBlocks++
		if returned {
			res.Ret = ret
			return res, nil
		}
		prev, cur = cur, next
	}
}

// stepBlock executes exactly one basic block of f — phi resolution against
// prev, the body, and the terminator — mutating regs and mem, so
// FunctionalOffload owns the program counter and can hand whole regions to
// the frame executor between steps. It returns the successor block, or
// returned=true with the return bits when the block ends in ret. Calls
// inside the block execute to completion on oracle.Run. Hooks fire
// Edge/Exit events only.
func stepBlock(f *ir.Function, cur, prev *ir.Block, regs, mem []uint64, hooks *oracle.Hooks) (next *ir.Block, ret uint64, returned bool, err error) {
	phis := cur.Phis()
	if len(phis) > 0 {
		tmp := make([]uint64, len(phis))
		for i, phi := range phis {
			idx := -1
			for k, from := range phi.Blocks {
				if from == prev {
					idx = k
					break
				}
			}
			if idx < 0 {
				return nil, 0, false, fmt.Errorf("%w: %s.%s: phi %s from %s", interp.ErrNoPhiEdge, f.Name, cur.Name, phi.Dst, prev)
			}
			tmp[i] = regs[phi.Args[idx]]
		}
		for i, phi := range phis {
			regs[phi.Dst] = tmp[i]
		}
	}
	for _, in := range cur.Instrs[len(phis):] {
		switch in.Op {
		case ir.OpBr:
			nb := in.Blocks[0]
			if hooks.Edge != nil {
				hooks.Edge(cur, nb)
			}
			return nb, 0, false, nil
		case ir.OpCondBr:
			nb := in.Blocks[1]
			if regs[in.Args[0]] != 0 {
				nb = in.Blocks[0]
			}
			if hooks.Edge != nil {
				hooks.Edge(cur, nb)
			}
			return nb, 0, false, nil
		case ir.OpRet:
			var v uint64
			if len(in.Args) == 1 {
				v = regs[in.Args[0]]
			}
			if hooks.Exit != nil {
				hooks.Exit(cur)
			}
			return nil, v, true, nil
		case ir.OpCall:
			callArgs := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				callArgs[i] = regs[a]
			}
			res, err := oracle.Run(in.Callee, callArgs, mem, nil, 0)
			if err != nil {
				return nil, 0, false, err
			}
			regs[in.Dst] = res.Ret
		default:
			v, err := interp.Eval(in, regs, mem)
			if err != nil {
				return nil, 0, false, fmt.Errorf("%w in %s.%s", err, f.Name, cur.Name)
			}
			if in.Op.HasDest() {
				regs[in.Dst] = v
			}
		}
	}
	return nil, 0, false, fmt.Errorf("interp: %s.%s: block fell off the end", f.Name, cur.Name)
}

// TestStepBlockPhiFault: a phi with no incoming value for the edge
// control took faults with interp.ErrNoPhiEdge, as the interpreters do.
func TestStepBlockPhiFault(t *testing.T) {
	f, err := ir.ParseFunction(`func @p(i64) {
entry:
  br %next
next:
  r2 = phi.i64 [entry: r1]
  ret r2
}
`)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]uint64, len(f.RegType))
	if _, _, _, err := stepBlock(f, f.Blocks[1], nil, regs, nil, &oracle.Hooks{}); !errors.Is(err, interp.ErrNoPhiEdge) {
		t.Fatalf("phi entered along no edge: %v, want ErrNoPhiEdge", err)
	}
}

// TestFunctionalOffloadOnRandomPrograms: the full speculation loop (frames,
// undo log, rollback, host re-execution) must be observationally identical
// to pure interpretation on random programs, for both path and braid
// targets.
func TestFunctionalOffloadOnRandomPrograms(t *testing.T) {
	cfg := DefaultConfig()
	checked := 0
	for seed := int64(0); seed < 150; seed += 2 {
		p := irgen.Generate(seed, irgen.Config{})
		memPure := p.NewMem()
		pure, err := oracle.Run(p.F, []uint64{interp.IBits(21)}, memPure, nil, 1<<22)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		tr, err := Capture(nil, p.F, []uint64{interp.IBits(21)}, p.NewMem(), cfg)
		if err != nil {
			t.Fatalf("seed %d: capture: %v", seed, err)
		}
		targets := []*Target{}
		if tgt, err := NewPathTarget(nil, tr.Profile, tr.Profile.HottestPath(), cfg); err == nil {
			targets = append(targets, tgt)
		}
		if braids := region.BuildBraids(tr.Profile, 0); len(braids) > 0 {
			if tgt, err := NewBraidTarget(nil, tr.Profile, braids[0], cfg); err == nil {
				targets = append(targets, tgt)
			}
		}
		for ti, tgt := range targets {
			memOff := p.NewMem()
			res, err := FunctionalOffload(p.F, []uint64{interp.IBits(21)}, memOff, tgt, spec.Always{}, 1<<22)
			if err != nil {
				t.Fatalf("seed %d target %d: %v", seed, ti, err)
			}
			if res.Ret != pure.Ret {
				t.Fatalf("seed %d target %d: result %d != pure %d", seed, ti, res.Ret, pure.Ret)
			}
			for i := range memPure {
				if memPure[i] != memOff[i] {
					t.Fatalf("seed %d target %d: memory diverged at %d", seed, ti, i)
				}
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d target runs checked", checked)
	}
}
