// Package interp executes IR functions and exposes the profiling hooks the
// Needle pipeline consumes (block, edge, and instruction events). It plays
// the role the natively-executed, instrumented binary plays in the original
// LLVM-based system: the source of dynamic profiles.
package interp

import (
	"errors"
	"fmt"
	"math"

	"needle/internal/ir"
	"needle/internal/obs"
)

// Observability counters (no-ops until obs.Enable): dynamic instructions and
// run counts, split by execution path. The fast-path counters live in
// plan.go's RunProfiled; together they answer "how much execution went
// through the compiled plans versus the general hook interpreter".
var (
	obsHookRuns   = obs.GetCounter("interp.runs.hook")
	obsHookInstrs = obs.GetCounter("interp.instrs.hook")
)

// Errors returned by Run.
var (
	ErrDivideByZero = errors.New("interp: integer divide by zero")
	ErrOutOfBounds  = errors.New("interp: memory access out of bounds")
	ErrStepLimit    = errors.New("interp: step limit exceeded")
	// ErrOccurrenceLimit stops a profiled run that would complete more
	// path occurrences than PlanOpts.MaxOccurrences allows.
	ErrOccurrenceLimit = errors.New("interp: path occurrence limit exceeded")
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

// Result summarizes one execution.
type Result struct {
	Ret   uint64 // raw bits of the return value; 0 for void
	Steps int64  // dynamically executed instructions, terminators included
}

// F converts raw bits to float64.
func F(bits uint64) float64 { return math.Float64frombits(bits) }

// FBits converts a float64 to raw bits.
func FBits(v float64) uint64 { return math.Float64bits(v) }

// I converts raw bits to int64.
func I(bits uint64) int64 { return int64(bits) }

// IBits converts an int64 to raw bits.
func IBits(v int64) uint64 { return uint64(v) }

// ErrNoPhiEdge is wrapped by the fault a run raises when control enters a
// block whose phi has no incoming value for the edge control took, or for
// no edge at all: a phi in the entry block, which ir.Verify accepts.
var ErrNoPhiEdge = errors.New("interp: phi has no incoming edge")

// phiEdgeError is a missing-phi-edge fault: its text names the function,
// block, phi and predecessor, and it wraps ErrNoPhiEdge.
type phiEdgeError struct{ msg string }

func (e *phiEdgeError) Error() string { return e.msg }
func (e *phiEdgeError) Unwrap() error { return ErrNoPhiEdge }

// phiEdgeFault returns the fault for a phi of block b in f reached from
// pred (nil on function entry).
func phiEdgeFault(f *ir.Function, b *ir.Block, phi *ir.Instr, pred *ir.Block) error {
	return &phiEdgeError{fmt.Sprintf("interp: %s.%s: phi %s has no incoming edge from %s", f.Name, b.Name, phi.Dst, pred)}
}

// maxCallDepth bounds recursion through OpCall.
const maxCallDepth = 256

// ErrCallDepth is returned when call nesting exceeds maxCallDepth.
var ErrCallDepth = errors.New("interp: call depth exceeded")

// Run executes f with the given arguments over mem, firing hooks, bounded by
// maxSteps dynamic instructions (<= 0 means a generous default of 1<<32).
// Argument and return values are raw 64-bit patterns; use F/FBits for
// float parameters. Calls execute recursively; hook events fire for callee
// blocks and instructions too, so per-function consumers (like the
// Ball-Larus profiler) filter by block membership.
func Run(f *ir.Function, args []uint64, mem []uint64, hooks *Hooks, maxSteps int64) (Result, error) {
	if maxSteps <= 0 {
		maxSteps = 1 << 32
	}
	if hooks == nil {
		hooks = &Hooks{}
	}
	ex := &executor{mem: mem, hooks: hooks, maxSteps: maxSteps}
	ret, err := ex.exec(f, args, 0)
	obsHookRuns.Add(1)
	obsHookInstrs.Add(ex.steps)
	return Result{Ret: ret, Steps: ex.steps}, err
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
		return 0, fmt.Errorf("%w in %s", ErrCallDepth, f.Name)
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
					return 0, phiEdgeFault(f, cur, phi, prev)
				}
				phiTmp = append(phiTmp, regs[phi.Args[idx]])
			}
			for i, phi := range phis {
				regs[phi.Dst] = phiTmp[i]
				ex.steps++
				if ex.steps > ex.maxSteps {
					return 0, fmt.Errorf("%w (limit %d) in %s", ErrStepLimit, ex.maxSteps, f.Name)
				}
				if hooks.Instr != nil {
					hooks.Instr(phi)
				}
			}
		}

		for _, in := range cur.Instrs[len(phis):] {
			ex.steps++
			if ex.steps > ex.maxSteps {
				return 0, fmt.Errorf("%w (limit %d) in %s", ErrStepLimit, ex.maxSteps, f.Name)
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
				v, err := Eval(in, regs, mem)
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

// Eval executes one non-control instruction against a register file and
// memory, returning the raw result bits. Memory access and the traps
// (ErrOutOfBounds, ErrDivideByZero) are handled here; every other opcode's
// arithmetic is ir.EvalPure. It is also the single-instruction building
// block reused by the speculation runtime's frame executor.
func Eval(in *ir.Instr, regs []uint64, mem []uint64) (uint64, error) {
	var a, b, c uint64
	switch len(in.Args) {
	case 3:
		c = regs[in.Args[2]]
		fallthrough
	case 2:
		b = regs[in.Args[1]]
		fallthrough
	case 1:
		a = regs[in.Args[0]]
	}
	switch in.Op {
	case ir.OpLoad:
		addr := int64(a)
		if addr < 0 || addr >= int64(len(mem)) {
			return 0, fmt.Errorf("%w: load of word %d (mem size %d)", ErrOutOfBounds, addr, len(mem))
		}
		return mem[addr], nil
	case ir.OpStore:
		addr := int64(a)
		if addr < 0 || addr >= int64(len(mem)) {
			return 0, fmt.Errorf("%w: store to word %d (mem size %d)", ErrOutOfBounds, addr, len(mem))
		}
		mem[addr] = b
		return 0, nil
	case ir.OpDiv, ir.OpRem:
		if b == 0 {
			return 0, ErrDivideByZero
		}
	}
	if v, ok := ir.EvalPure(in.Op, in.Imm, a, b, c); ok {
		return v, nil
	}
	return 0, fmt.Errorf("interp: unhandled opcode %s", in.Op)
}
