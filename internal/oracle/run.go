package oracle

import (
	"fmt"

	"needle/internal/interp"
	"needle/internal/ir"
)

// Hooks receives dynamic execution events. Any field may be nil. Events fire
// in program order: Block when control enters a block (including the entry
// block), Edge on every control transfer between blocks (before the Block
// event of the target), Instr after each executed instruction (terminators
// included), and Exit when the function returns, identifying the returning
// block.
type Hooks struct {
	Block func(b *ir.Block)
	Edge  func(from, to *ir.Block)
	Instr func(in *ir.Instr)
	Exit  func(from *ir.Block)
	// Mem fires for every load and store, just before the Instr event of the
	// same operation, exposing the effective word address for cache and
	// timing models.
	Mem func(in *ir.Instr, addr int64)
}

// maxCallDepth bounds recursion through OpCall, as the compiled plan's
// limit does.
const maxCallDepth = 256

// Run executes f with the given arguments over mem, firing hooks, bounded by
// maxSteps dynamic instructions (<= 0 means a generous default of 1<<32).
// Argument and return values are raw 64-bit patterns; use interp.F and
// interp.FBits for float parameters. Calls execute recursively; hook events
// fire for callee blocks and instructions too, so per-function consumers
// (like the Ball-Larus profiler) filter by block membership.
//
// Run is the tree-walking reference the compiled plans (interp.RunProfiled,
// interp.Exec) are tested against: it shares only Eval, the error values
// and the missing-phi-edge fault with them.
func Run(f *ir.Function, args []uint64, mem []uint64, hooks *Hooks, maxSteps int64) (interp.Result, error) {
	if maxSteps <= 0 {
		maxSteps = 1 << 32
	}
	if hooks == nil {
		hooks = &Hooks{}
	}
	ex := &executor{mem: mem, hooks: hooks, maxSteps: maxSteps}
	ret, err := ex.exec(f, args, 0)
	return interp.Result{Ret: ret, Steps: ex.steps}, err
}

// executor carries the state shared across nested calls.
type executor struct {
	mem      []uint64
	hooks    *Hooks
	maxSteps int64
	steps    int64
}

func (ex *executor) exec(f *ir.Function, args []uint64, depth int) (uint64, error) {
	if depth > maxCallDepth {
		return 0, fmt.Errorf("%w in %s", interp.ErrCallDepth, f.Name)
	}
	if len(args) != f.NumParams() {
		return 0, fmt.Errorf("interp: %s wants %d args, got %d", f.Name, f.NumParams(), len(args))
	}
	hooks := ex.hooks
	mem := ex.mem
	regs := make([]uint64, len(f.RegType))
	for i, a := range args {
		regs[f.Param(i)] = a
	}

	cur := f.Entry()
	var prev *ir.Block
	if hooks.Block != nil {
		hooks.Block(cur)
	}
	// phiTmp buffers phi reads so that all incoming values are read before
	// any phi destination is written (parallel-copy semantics).
	var phiTmp []uint64

	for {
		// Resolve phis relative to the predecessor we arrived from.
		phis := cur.Phis()
		if len(phis) > 0 {
			phiTmp = phiTmp[:0]
			for _, phi := range phis {
				idx := -1
				for i, from := range phi.Blocks {
					if from == prev {
						idx = i
						break
					}
				}
				if idx < 0 {
					return 0, interp.PhiEdgeFault(f, cur, phi, prev)
				}
				phiTmp = append(phiTmp, regs[phi.Args[idx]])
			}
			for i, phi := range phis {
				regs[phi.Dst] = phiTmp[i]
				ex.steps++
				if ex.steps > ex.maxSteps {
					return 0, fmt.Errorf("%w (limit %d) in %s", interp.ErrStepLimit, ex.maxSteps, f.Name)
				}
				if hooks.Instr != nil {
					hooks.Instr(phi)
				}
			}
		}

		for _, in := range cur.Instrs[len(phis):] {
			ex.steps++
			if ex.steps > ex.maxSteps {
				return 0, fmt.Errorf("%w (limit %d) in %s", interp.ErrStepLimit, ex.maxSteps, f.Name)
			}
			switch in.Op {
			case ir.OpBr:
				if hooks.Instr != nil {
					hooks.Instr(in)
				}
				next := in.Blocks[0]
				if hooks.Edge != nil {
					hooks.Edge(cur, next)
				}
				prev, cur = cur, next
				if hooks.Block != nil {
					hooks.Block(cur)
				}
			case ir.OpCondBr:
				if hooks.Instr != nil {
					hooks.Instr(in)
				}
				next := in.Blocks[1]
				if regs[in.Args[0]] != 0 {
					next = in.Blocks[0]
				}
				if hooks.Edge != nil {
					hooks.Edge(cur, next)
				}
				prev, cur = cur, next
				if hooks.Block != nil {
					hooks.Block(cur)
				}
			case ir.OpRet:
				if hooks.Instr != nil {
					hooks.Instr(in)
				}
				var ret uint64
				if len(in.Args) == 1 {
					ret = regs[in.Args[0]]
				}
				if hooks.Exit != nil {
					hooks.Exit(cur)
				}
				return ret, nil
			case ir.OpCall:
				callArgs := make([]uint64, len(in.Args))
				for i, a := range in.Args {
					callArgs[i] = regs[a]
				}
				if hooks.Instr != nil {
					hooks.Instr(in)
				}
				v, err := ex.exec(in.Callee, callArgs, depth+1)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = v
			default:
				if hooks.Mem != nil && in.Op.IsMemory() {
					hooks.Mem(in, int64(regs[in.Args[0]]))
				}
				v, err := interp.Eval(in, regs, mem)
				if err != nil {
					return 0, fmt.Errorf("%w in %s.%s", err, f.Name, cur.Name)
				}
				if in.Op.HasDest() {
					regs[in.Dst] = v
				}
				if hooks.Instr != nil {
					hooks.Instr(in)
				}
			}
			if in.Op.IsTerminator() {
				break
			}
		}
	}
}
