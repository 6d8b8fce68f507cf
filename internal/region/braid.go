package region

import (
	"sort"

	"needle/internal/ir"
	"needle/internal/profile"
)

// Braid is the paper's new offload abstraction (Section IV-B): the merge of
// several BL-Paths that share both their entry and their exit block. The
// merged region is acyclic, single entry, single exit, and contains multiple
// flows of control. Because the constituent paths agree on entry and exit,
// the live-in/live-out interface is unchanged, and coverage is exactly the
// sum of the merged paths' coverage.
type Braid struct {
	Region

	// Guards is the number of conditional branches with at least one
	// successor leaving the braid; these become guards in the software frame
	// (the ♦ column of Table IV).
	Guards int
	// IFs is the number of conditional branches whose both successors stay
	// inside the braid: control flow introduced by merging paths, handled by
	// non-speculative predication on the accelerator (the IFs column).
	IFs int
}

// braidKey groups paths by (entry block, exit block).
type braidKey struct{ entry, exit int }

// BuildBraids merges every executed path of the profile into braids keyed by
// shared entry and exit blocks, ranked by total coverage (weight) descending.
// maxPaths bounds how many paths merge into one braid (<=0 means unlimited);
// the paper merges all overlapping hot paths, which is the default used by
// the pipeline.
func BuildBraids(fp *profile.FunctionProfile, maxPaths int) []*Braid {
	groups := make(map[braidKey][]*profile.Path)
	var order []braidKey
	// fp.Paths is already ranked by weight, so each group's slice is too.
	for _, p := range fp.Paths {
		if len(p.Blocks) == 0 {
			continue
		}
		k := braidKey{p.Blocks[0].Index, p.Blocks[len(p.Blocks)-1].Index}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		if maxPaths > 0 && len(groups[k]) >= maxPaths {
			continue
		}
		groups[k] = append(groups[k], p)
	}

	braids := make([]*Braid, 0, len(order))
	for _, k := range order {
		braids = append(braids, buildBraid(fp, groups[k]))
	}
	sort.SliceStable(braids, func(i, j int) bool {
		return braidWeight(braids[i]) > braidWeight(braids[j])
	})
	return braids
}

func braidWeight(b *Braid) int64 {
	var w int64
	for _, p := range b.Paths {
		w += p.Weight
	}
	return w
}

func buildBraid(fp *profile.FunctionProfile, paths []*profile.Path) *Braid {
	entry := paths[0].Blocks[0]
	exit := paths[0].Blocks[len(paths[0].Blocks)-1]
	in := make([]bool, len(fp.F.Blocks)) // membership by Block.Index
	n := 0
	for _, p := range paths {
		for _, b := range p.Blocks {
			if !in[b.Index] {
				in[b.Index] = true
				n++
			}
		}
	}
	// Topological order within the braid: entry first, exit last, and the
	// other members in function block order, which our builders keep
	// topological for acyclic sub-regions. Block.Index is a block's
	// position in F.Blocks, so this is the members sorted by index.
	blocks := make([]*ir.Block, 0, n)
	blocks = append(blocks, entry)
	for _, b := range fp.F.Blocks {
		if in[b.Index] && b != entry && b != exit {
			blocks = append(blocks, b)
		}
	}
	if exit != entry {
		blocks = append(blocks, exit)
	}

	br := &Braid{Region: *newRegion(fp.F, KindBraid, blocks)}
	br.Entry = entry
	br.Exit = exit
	br.Paths = paths
	br.classifyBranches(in)
	return br
}

// classifyBranches splits the braid's conditional branches into guards and
// internal IFs; in marks the braid's blocks by Block.Index. An edge "stays
// inside" only if its target is a braid block other than the entry (a
// branch back to the entry is the loop back edge, which ends the braid
// occurrence) and the source is not the exit block (the exit block's
// branch decides whether the braid completed, i.e. it is a guard).
func (br *Braid) classifyBranches(in []bool) {
	for _, b := range br.Blocks {
		t := b.Term()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		inside := 0
		for _, s := range t.Blocks {
			if in[s.Index] && s != br.Entry && b != br.Exit {
				inside++
			}
		}
		if inside == 2 {
			br.IFs++
		} else {
			br.Guards++
		}
	}
}

// MergedPathCount returns how many paths were merged into the braid.
func (br *Braid) MergedPathCount() int { return len(br.Paths) }

// BranchMemDeps counts memory operations in the braid that remain
// control-dependent on an internal IF: memory ops in blocks that are not
// on every merged path (Section IV-B "Braids enable memory speculation").
// Memory ops in common blocks become control independent once the guards
// speculate the region as a unit.
func (br *Braid) BranchMemDeps() int {
	if len(br.Paths) == 0 {
		return 0
	}
	common := make(map[*ir.Block]int)
	for _, p := range br.Paths {
		seen := make(map[*ir.Block]bool)
		for _, b := range p.Blocks {
			if !seen[b] {
				seen[b] = true
				common[b]++
			}
		}
	}
	n := 0
	for _, b := range br.Blocks {
		if common[b] == len(br.Paths) {
			continue // on every path: control independent after framing
		}
		for _, in := range b.Instrs {
			if in.Op.IsMemory() {
				n++
			}
		}
	}
	return n
}

// BuildPathTrees implements the DySER-style merge policy the paper
// contrasts braids with (Section IV-B "Relationship to Hyperblocks,
// Path-Trees"): paths are grouped by shared *entry only*, so a tree may
// fan out to different exit blocks with different live-out sets — the
// property that forces extra live-out plumbing and makes the paper prefer
// braids. Returned trees are ranked by total weight.
func BuildPathTrees(fp *profile.FunctionProfile, maxPaths int) []*Braid {
	groups := make(map[int][]*profile.Path)
	var order []int
	for _, p := range fp.Paths {
		if len(p.Blocks) == 0 {
			continue
		}
		k := p.Blocks[0].Index
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		if maxPaths > 0 && len(groups[k]) >= maxPaths {
			continue
		}
		groups[k] = append(groups[k], p)
	}
	trees := make([]*Braid, 0, len(order))
	for _, k := range order {
		trees = append(trees, buildBraid(fp, groups[k]))
	}
	sort.SliceStable(trees, func(i, j int) bool {
		return braidWeight(trees[i]) > braidWeight(trees[j])
	})
	return trees
}

// LiveOutSpread returns how many distinct exit blocks a merged region's
// constituent paths end at: 1 for braids by construction, possibly more
// for path trees (each exit implies its own live-out set).
func (br *Braid) LiveOutSpread() int {
	exits := make(map[*ir.Block]bool)
	for _, p := range br.Paths {
		if len(p.Blocks) > 0 {
			exits[p.Blocks[len(p.Blocks)-1]] = true
		}
	}
	return len(exits)
}
