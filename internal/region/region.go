// Package region implements Needle's offload-region formation: BL-Path
// regions (Section III), Braids (Section IV-B), and the Superblock and
// Hyperblock baselines it is evaluated against (Section II-B). It also
// provides the static control-flow characterization behind Table I.
package region

import (
	"fmt"

	"needle/internal/analysis"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/profile"
)

// Kind distinguishes the region formation strategies.
type Kind uint8

const (
	KindPath Kind = iota
	KindBraid
	KindSuperblock
	KindHyperblock
)

func (k Kind) String() string {
	switch k {
	case KindPath:
		return "bl-path"
	case KindBraid:
		return "braid"
	case KindSuperblock:
		return "superblock"
	case KindHyperblock:
		return "hyperblock"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Region is a single-entry single-exit set of basic blocks selected for
// offload. Blocks is ordered: path order for BL-Paths and Superblocks,
// topological order for Braids and Hyperblocks.
type Region struct {
	F      *ir.Function
	Kind   Kind
	Blocks []*ir.Block
	Entry  *ir.Block
	Exit   *ir.Block

	// Paths holds the constituent profiled paths (BL-Path and Braid kinds).
	Paths []*profile.Path

	in []bool // membership by Block.Index
}

// newRegion assembles a region of f over blocks. in marks the members by
// Block.Index when the builder already has that table; nil builds it.
func newRegion(f *ir.Function, kind Kind, blocks []*ir.Block, in []bool) Region {
	if in == nil {
		in = make([]bool, len(f.Blocks))
		for _, b := range blocks {
			in[b.Index] = true
		}
	}
	r := Region{F: f, Kind: kind, Blocks: blocks, in: in}
	if len(blocks) > 0 {
		r.Entry = blocks[0]
		r.Exit = blocks[len(blocks)-1]
	}
	return r
}

// Contains reports whether the region includes b, a block of r.F.
func (r *Region) Contains(b *ir.Block) bool { return b.Index < len(r.in) && r.in[b.Index] }

// ContainsAll reports whether the region includes every listed block of
// r.F, each given by its Block.Index as a profiled path holds it.
func (r *Region) ContainsAll(blocks []int32) bool {
	for _, b := range blocks {
		if !r.in[b] {
			return false
		}
	}
	return true
}

// NumOps returns the number of non-terminator instructions in the region
// (the "#Ins." columns of Tables II and IV).
func (r *Region) NumOps() int {
	n := 0
	for _, b := range r.Blocks {
		n += b.NumOps()
	}
	return n
}

// NumBranches returns the number of conditional branches in the region
// (the ♦ columns).
func (r *Region) NumBranches() int {
	n := 0
	for _, b := range r.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
			n++
		}
	}
	return n
}

// NumMemOps returns the number of loads and stores in the region.
func (r *Region) NumMemOps() int {
	n := 0
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			if in.Op.IsMemory() {
				n++
			}
		}
	}
	return n
}

// PhiCancel returns the number of phi instructions in non-entry region
// blocks. When a single flow of control is extracted (a BL-Path frame),
// every such phi resolves to a plain copy and disappears from the dataflow
// graph — the C6 "φ ops cancel" column of Table II and the hardware-
// selection-operator saving discussed in Section III-B.
func (r *Region) PhiCancel() int {
	n := 0
	for _, b := range r.Blocks {
		if b == r.Entry {
			continue
		}
		n += len(b.Phis())
	}
	return n
}

// LiveSets holds a region's live values as register bitsets: Defs are the
// registers the region defines, In its live-ins and Out its live-outs.
// LiveValues refills them in place, so one LiveSets serves every region of
// a function without reallocating. The zero value is ready to use.
type LiveSets struct {
	Defs, In, Out analysis.RegSet
}

// LiveValues computes the live-in and live-out registers of the region
// (the ↓,↑ columns) into s: live-ins are registers read inside the region
// but defined outside it (parameters included); live-outs are registers
// defined inside the region that are consumed after it. Function liveness
// is served by am (nil for a one-shot manager).
func (r *Region) LiveValues(am *pm.Manager, s *LiveSets) {
	nr := r.F.NumRegs()
	s.Defs, s.In, s.Out = s.Defs.Reset(nr), s.In.Reset(nr), s.Out.Reset(nr)
	defsIn, inSet, outSet := s.Defs, s.In, s.Out
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasDest() {
				defsIn.Add(in.Dst)
			}
		}
	}
	for _, b := range r.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi && b == r.Entry {
				// Entry phis draw their value from outside the region at
				// invocation time: every incoming value is a live-in, even
				// when its defining block is inside the region (the region
				// is acyclic, so such a value comes from the previous
				// dynamic instance).
				for _, a := range in.Args {
					inSet.Add(a)
				}
				continue
			}
			in.Uses(func(reg ir.Reg) {
				if !defsIn.Has(reg) {
					inSet.Add(reg)
				}
			})
		}
	}

	lv := pm.Ensure(am).Liveness(r.F)
	// A region-defined value is live-out if it is live on any edge leaving
	// the region (including the exit block's successors): word-AND the
	// successor's live-in set against the region's defs.
	for _, b := range r.Blocks {
		for _, s := range b.Succs() {
			if r.Contains(s) && b != r.Exit {
				continue
			}
			for w, v := range lv.In[s.Index] {
				outSet[w] |= v & defsIn[w]
			}
			// Phi uses in the successor attributed to this edge.
			for _, phi := range s.Phis() {
				for i, from := range phi.Blocks {
					if from == b && defsIn.Has(phi.Args[i]) {
						outSet.Add(phi.Args[i])
					}
				}
			}
		}
	}
	// Exit via return: the returned value is live-out.
	if t := r.Exit.Term(); t != nil && t.Op == ir.OpRet && len(t.Args) == 1 && defsIn.Has(t.Args[0]) {
		outSet.Add(t.Args[0])
	}
}

// BranchMemDeps counts the region's memory operations that stay control
// dependent on an internal IF: those in blocks not on every constituent
// path (Section IV-B "Braids enable memory speculation"). Memory ops in
// blocks common to all paths become control independent once the guards
// speculate the region as a unit. A region without paths counts none.
func (r *Region) BranchMemDeps() int {
	if len(r.Paths) == 0 {
		return 0
	}
	// onAll[i] counts the paths through block i; last[i] is the 1-based
	// number of the last path that counted it.
	n := len(r.F.Blocks)
	t := make([]int32, 2*n)
	onAll, last := t[:n], t[n:]
	for i, p := range r.Paths {
		for _, b := range p.Blocks {
			if last[b] != int32(i+1) {
				last[b] = int32(i + 1)
				onAll[b]++
			}
		}
	}
	deps := 0
	for _, b := range r.Blocks {
		if int(onAll[b.Index]) == len(r.Paths) {
			continue // on every path: control independent after framing
		}
		for _, in := range b.Instrs {
			if in.Op.IsMemory() {
				deps++
			}
		}
	}
	return deps
}

// FromBlock builds a single-basic-block region: the offload granularity of
// the compound-function-unit designs in Figure 2's first column (BERET-like
// accelerators that terminate fusion at branches).
func FromBlock(f *ir.Function, b *ir.Block) *Region {
	r := newRegion(f, KindPath, []*ir.Block{b}, nil)
	return &r
}

// FromPath builds a single-flow region from a profiled BL-Path of f, with
// its own copy of the path's blocks.
func FromPath(f *ir.Function, p *profile.Path) *Region {
	blocks := make([]*ir.Block, len(p.Blocks))
	for i, b := range p.Blocks {
		blocks[i] = f.Blocks[b]
	}
	r := newRegion(f, KindPath, blocks, nil)
	r.Paths = []*profile.Path{p}
	return &r
}

// Coverage returns the fraction of the function's dynamic instructions the
// region's constituent paths cover (0 for superblocks/hyperblocks, which
// carry no path attribution).
func (r *Region) Coverage(fp *profile.FunctionProfile) float64 {
	var c float64
	for _, p := range r.Paths {
		c += p.Coverage(fp)
	}
	return c
}
