package region

import (
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/profile"
)

// Hyperblock is the if-conversion baseline (Mahlke et al., MICRO 1992;
// Section II-B of the paper): a single-entry acyclic region that folds both
// sides of branches in via predication. Construction makes local decisions,
// so hyperblocks can absorb blocks that rarely execute — the "cold ops" that
// Figure 5 charges against them — and they require predicate bits for every
// if-converted branch.
type Hyperblock struct {
	Region

	// PredBits is the number of conditional branches if-converted inside the
	// region; each needs a predicate (Table I's "Max. predication" counts
	// these for the fully inlined hot function).
	PredBits int
	// ColdOps is the number of operations in included blocks whose dynamic
	// execution count is below coldFraction of the entry block's count
	// (Figure 5's wasted work).
	ColdOps int
	// TailDup is the number of candidate blocks excluded because they had
	// side entries and would need tail duplication.
	TailDup int
	// ColdFraction is the threshold used for the ColdOps classification.
	ColdFraction float64
}

// BuildHyperblock if-converts the forward-reachable, single-entry region
// rooted at entry. A block joins the region when every one of its forward
// predecessors is already inside (so the region keeps a single entry);
// blocks with outside predecessors are tallied as tail-duplication
// candidates instead. Growth never crosses back edges, keeping the region
// acyclic. coldFraction classifies included blocks executed less than that
// fraction of the entry count as cold (the paper's "infrequently executed"
// operations).
//
// BuildHyperblock includes every reconvergent block regardless of
// frequency — the local-decision behaviour Figure 5 charges with wasted
// operations. BuildTunedHyperblock applies the classic inclusion heuristic
// instead.
func BuildHyperblock(am *pm.Manager, fp *profile.FunctionProfile, entry *ir.Block, coldFraction float64) *Hyperblock {
	return buildHyperblock(am, fp, entry, coldFraction, 0)
}

// BuildTunedHyperblock excludes blocks executed less than includeFraction
// of the entry count (side exits form there), the heuristic real
// hyperblock compilers use to bound wasted work. Used by the Figure 2
// design-space baseline.
func BuildTunedHyperblock(am *pm.Manager, fp *profile.FunctionProfile, entry *ir.Block, coldFraction, includeFraction float64) *Hyperblock {
	return buildHyperblock(am, fp, entry, coldFraction, includeFraction)
}

func buildHyperblock(am *pm.Manager, fp *profile.FunctionProfile, entry *ir.Block, coldFraction, includeFraction float64) *Hyperblock {
	if coldFraction <= 0 {
		coldFraction = 0.1
	}
	f := fp.F
	dom := pm.Ensure(am).Dominators(f)
	isBack := func(u, v *ir.Block) bool { return dom.Dominates(v, u) }

	set := make([]bool, len(f.Blocks)) // region membership by Block.Index
	set[entry.Index] = true
	order := make([]*ir.Block, 1, len(f.Blocks))
	order[0] = entry
	tailDup := 0
	// Iterate to a fixed point: a successor is admitted once all its forward
	// predecessors are in the region.
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(order); i++ {
			b := order[i]
			for _, s := range b.Succs() {
				if set[s.Index] || isBack(b, s) || s == entry {
					continue
				}
				if includeFraction > 0 &&
					float64(fp.BlockCounts[s.Index]) < includeFraction*float64(fp.BlockCounts[entry.Index]) {
					continue // heuristic exclusion: too cold to if-convert
				}
				allIn := true
				for _, p := range s.Preds {
					if isBack(p, s) {
						continue
					}
					if !set[p.Index] {
						allIn = false
						break
					}
				}
				if !allIn {
					continue
				}
				// Never grow past a returning block's successors implicitly;
				// returning blocks simply have none.
				set[s.Index] = true
				order = append(order, s)
				changed = true
			}
		}
	}
	// Count tail-duplication candidates: blocks with at least one forward
	// predecessor inside and at least one outside.
	for _, b := range f.Blocks {
		if set[b.Index] {
			continue
		}
		in, out := false, false
		for _, p := range b.Preds {
			if isBack(p, b) {
				continue
			}
			if set[p.Index] {
				in = true
			} else {
				out = true
			}
		}
		if in && out {
			tailDup++
		}
	}

	hb := &Hyperblock{Region: newRegion(f, KindHyperblock, order, set), TailDup: tailDup, ColdFraction: coldFraction}
	hb.Entry = entry
	hb.Exit = order[len(order)-1]

	entryCount := fp.BlockCounts[entry.Index]
	threshold := coldFraction * float64(entryCount)
	for _, b := range order {
		t := b.Term()
		if t != nil && t.Op == ir.OpCondBr {
			bothIn := set[t.Blocks[0].Index] && set[t.Blocks[1].Index] &&
				!isBack(b, t.Blocks[0]) && !isBack(b, t.Blocks[1])
			if bothIn {
				hb.PredBits++
			}
		}
		if float64(fp.BlockCounts[b.Index]) < threshold {
			hb.ColdOps += b.NumOps()
		}
	}
	return hb
}

// ColdOpFraction returns ColdOps relative to the hyperblock's size, the
// quantity Figure 5 plots.
func (hb *Hyperblock) ColdOpFraction() float64 {
	n := hb.NumOps()
	if n == 0 {
		return 0
	}
	return float64(hb.ColdOps) / float64(n)
}

// SizeVsBlock returns the ratio of hyperblock operations to the operations
// of its entry block alone — the "Hyperblocks only attain ~2.2x the basic
// block granularity" comparison of Section II-A.
func (hb *Hyperblock) SizeVsBlock() float64 {
	base := hb.Entry.NumOps()
	if base == 0 {
		return 0
	}
	return float64(hb.NumOps()) / float64(base)
}
