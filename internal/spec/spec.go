// Package spec implements the speculation runtime around software frames:
// the undo log that makes frames atomic, a functional frame executor with
// rollback, and the accelerator invocation predictors of Section V ("When
// to invoke a BL-Path accelerator?").
package spec

import (
	"fmt"

	"needle/internal/frame"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/region"
)

// UndoLog records old memory values so a failed frame can revert every
// externally visible store (Figure 8's "Undo log").
type UndoLog struct {
	addrs []int64
	olds  []uint64
}

// Record logs the value about to be overwritten at addr.
func (l *UndoLog) Record(addr int64, old uint64) {
	l.addrs = append(l.addrs, addr)
	l.olds = append(l.olds, old)
}

// Len returns the number of logged stores.
func (l *UndoLog) Len() int { return len(l.addrs) }

// Rollback restores logged values in reverse order and clears the log.
func (l *UndoLog) Rollback(mem []uint64) {
	for i := len(l.addrs) - 1; i >= 0; i-- {
		a := l.addrs[i]
		if a >= 0 && a < int64(len(mem)) {
			mem[a] = l.olds[i]
		}
	}
	l.Reset()
}

// Reset discards the log (frame committed).
func (l *UndoLog) Reset() {
	l.addrs = l.addrs[:0]
	l.olds = l.olds[:0]
}

// Outcome describes one functional frame invocation.
type Outcome struct {
	Success  bool
	Ops      int       // instructions executed inside the region
	Stores   int       // stores performed (and logged)
	FailedAt *ir.Block // block whose branch left the region, on failure

	// On success: where control resumes. Returned is set when the region
	// exited via ret (Ret holds the raw bits); otherwise Next is the block
	// the host continues at and Prev the region block that branched there.
	Next     *ir.Block
	Prev     *ir.Block
	Returned bool
	Ret      uint64
}

// ExecuteFrame functionally executes one invocation of a frame against the
// given register file and memory, starting at the region entry as if
// control arrived from prev (which resolves the entry block's phis; pass
// nil when the entry has none). Stores are written through an undo log; if
// control leaves the region anywhere other than through the exit block the
// invocation fails and memory is rolled back to its pre-invocation state.
//
// Path frames additionally require control to follow the exact block
// sequence of the path; braid frames accept any flow that stays within the
// region from entry to exit, which is precisely the coverage advantage
// Section IV-B claims for braids.
func ExecuteFrame(fr *frame.Frame, regs []uint64, mem []uint64, prev *ir.Block) (Outcome, error) {
	r := fr.Region
	var log UndoLog
	var out Outcome
	cur := r.Entry
	pathIdx := 0

	fail := func(at *ir.Block) (Outcome, error) {
		log.Rollback(mem)
		out.Success = false
		out.FailedAt = at
		return out, nil
	}

	var phiTmp []uint64
	for {
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
					return out, fmt.Errorf("spec: %s.%s: phi %s has no incoming from %v",
						r.F.Name, cur.Name, phi.Dst, prev)
				}
				phiTmp = append(phiTmp, regs[phi.Args[idx]])
			}
			for i, phi := range phis {
				regs[phi.Dst] = phiTmp[i]
				out.Ops++
			}
		}
		for _, in := range cur.Instrs[len(phis):] {
			out.Ops++
			switch in.Op {
			case ir.OpBr, ir.OpCondBr, ir.OpRet:
				// handled below
			case ir.OpStore:
				addr := int64(regs[in.Args[0]])
				if addr < 0 || addr >= int64(len(mem)) {
					log.Rollback(mem)
					return out, fmt.Errorf("spec: store out of bounds at word %d", addr)
				}
				log.Record(addr, mem[addr])
				out.Stores++
				mem[addr] = regs[in.Args[1]]
			default:
				v, err := interp.Eval(in, regs, mem)
				if err != nil {
					log.Rollback(mem)
					return out, err
				}
				if in.Op.HasDest() {
					regs[in.Dst] = v
				}
			}
		}

		t := cur.Term()
		if t.Op == ir.OpRet {
			if cur != r.Exit {
				return fail(cur)
			}
			out.Success = true
			out.Returned = true
			if len(t.Args) == 1 {
				out.Ret = regs[t.Args[0]]
			}
			return out, nil
		}
		next := t.Blocks[0]
		if t.Op == ir.OpCondBr && regs[t.Args[0]] == 0 {
			next = t.Blocks[1]
		}
		if cur == r.Exit {
			// Leaving through the exit completes the frame regardless of
			// direction: all of the region's work is done.
			out.Success = true
			out.Next = next
			out.Prev = cur
			return out, nil
		}
		switch r.Kind {
		case region.KindPath:
			if pathIdx+1 >= len(r.Blocks) || r.Blocks[pathIdx+1] != next {
				return fail(cur)
			}
			pathIdx++
		default:
			if !r.Contains(next) || next == r.Entry {
				return fail(cur)
			}
		}
		prev, cur = cur, next
	}
}

// Predictor decides whether to invoke the accelerator for an upcoming
// region entry, based on the global branch history observed before it.
type Predictor interface {
	// Predict reports whether to offload given the current branch history.
	Predict(history uint64) bool
	// Update trains the predictor with the invocation's actual outcome
	// (Update is also called for entries where Predict said no, so the
	// predictor can learn missed opportunities).
	Update(history uint64, success bool)
	Name() string
}

// Always invokes the accelerator on every region entry. Nine of the paper's
// applications effectively run in this mode.
type Always struct{}

func (Always) Predict(uint64) bool { return true }
func (Always) Update(uint64, bool) {}
func (Always) Name() string        { return "always" }

// History is the accelerator invocation history table of Section V: a table
// of 2-bit saturating counters indexed by the low bits of the global branch
// history preceding the region entry.
type History struct {
	mask  uint64 // selects the history bits that index table
	table []int8
}

// NewHistory creates a history predictor indexed by `bits` bits of branch
// history (table size 2^bits). Counters start at the invocation threshold;
// the predictor only offloads from strongly-confident entries, so noisy
// patterns quickly stop invoking (rollback is far more expensive than a
// missed opportunity). bits outside [1, 20] selects 12.
func NewHistory(bits uint) *History { return &NewHistories(1, bits)[0] }

// NewHistories creates n independent history predictors, as NewHistory
// does, with all their tables carved from one allocation.
func NewHistories(n int, bits uint) []History {
	if bits == 0 || bits > 20 {
		bits = 12
	}
	size := 1 << bits
	t := make([]int8, n*size)
	if len(t) > 0 {
		t[0] = 3
		for k := 1; k < len(t); k *= 2 {
			copy(t[k:], t[:k])
		}
	}
	hs := make([]History, n)
	for i := range hs {
		hs[i] = History{mask: uint64(size - 1), table: t[i*size : (i+1)*size : (i+1)*size]}
	}
	return hs
}

func (h *History) idx(history uint64) uint64 { return history & h.mask }

func (h *History) Predict(history uint64) bool { return h.table[h.idx(history)] >= 3 }

func (h *History) Update(history uint64, success bool) { h.Step(history, success) }

// Step is Predict then Update on one entry, found once: it reports whether
// the table invokes for history, and trains the entry with the outcome.
// saturated reports that the entry now holds the outcome's extreme, so
// that further steps with the same outcome on the same entry would change
// nothing: each would invoke exactly when success is set.
func (h *History) Step(history uint64, success bool) (invoke, saturated bool) {
	c := &h.table[h.idx(history)]
	invoke = *c >= 3
	if success {
		if *c < 3 {
			*c++
		}
		return invoke, *c == 3
	}
	if *c > 0 {
		*c--
	}
	return invoke, *c == 0
}

// Mask returns the history bits that index the table: two histories index
// the same entry exactly when they agree on them.
func (h *History) Mask() uint64 { return h.mask }

func (h *History) Name() string { return "history" }

// Oracle invokes exactly when the invocation would succeed. The system
// simulator resolves the future for it; Predict is driven through SetNext.
type Oracle struct{ next bool }

// SetNext primes the oracle with the known outcome of the next invocation.
func (o *Oracle) SetNext(success bool) { o.next = success }

func (o *Oracle) Predict(uint64) bool { return o.next }
func (o *Oracle) Update(uint64, bool) {}
func (o *Oracle) Name() string        { return "oracle" }
