package region

import (
	"cmp"
	"slices"

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

// braidKey groups paths by (entry block, exit block), each by its
// Block.Index; path trees group by entry alone, with exit -1.
type braidKey struct{ entry, exit int32 }

// BuildBraids merges every executed path of the profile into braids keyed by
// shared entry and exit blocks, ranked by total coverage (weight) descending.
// maxPaths bounds how many paths merge into one braid (<=0 means unlimited);
// the paper merges all overlapping hot paths, which is the default used by
// the pipeline.
func BuildBraids(fp *profile.FunctionProfile, maxPaths int) []*Braid {
	return mergeGroups(fp, groupPaths(fp, maxPaths, func(p *profile.Path) braidKey {
		return braidKey{p.Blocks[0], p.Blocks[len(p.Blocks)-1]}
	}))
}

// groupPaths groups fp's executed paths by key, in the order of each
// group's first path, keeping at most maxPaths (<= 0: all) per group.
// fp.Paths is ranked by weight, so each group is too. A counting pass
// sizes the groups, which are then filled as windows of one arena.
func groupPaths(fp *profile.FunctionProfile, maxPaths int, key func(*profile.Path) braidKey) [][]*profile.Path {
	ids := make(map[braidKey]int32)
	gid := make([]int32, len(fp.Paths)) // each path's group, -1 when left out
	var count []int32
	total := 0
	for i, p := range fp.Paths {
		gid[i] = -1
		if len(p.Blocks) == 0 {
			continue
		}
		k := key(p)
		g, ok := ids[k]
		if !ok {
			g = int32(len(count))
			ids[k] = g
			count = append(count, 0)
		}
		if maxPaths > 0 && int(count[g]) >= maxPaths {
			continue
		}
		count[g]++
		gid[i] = g
		total++
	}
	groups := make([][]*profile.Path, len(count))
	arena := make([]*profile.Path, total)
	off := 0
	for g, c := range count {
		groups[g] = arena[off : off : off+int(c)]
		off += int(c)
	}
	for i, p := range fp.Paths {
		if g := gid[i]; g >= 0 {
			groups[g] = append(groups[g], p)
		}
	}
	return groups
}

// mergeGroups merges each group of paths into one braid, ranked by weight
// descending (stable).
func mergeGroups(fp *profile.FunctionProfile, groups [][]*profile.Path) []*Braid {
	braids := buildBraids(fp, groups)
	slices.SortStableFunc(braids, func(a, b *Braid) int {
		return cmp.Compare(braidWeight(b), braidWeight(a))
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

// buildBraids merges each group of paths into one braid, in group order.
// The braids, their membership tables and their block lists are windows of
// three arenas, whatever the number of braids: a first pass marks every
// braid's members and counts them, and a second lays out the blocks.
func buildBraids(fp *profile.FunctionProfile, groups [][]*profile.Path) []*Braid {
	n := len(fp.F.Blocks)
	arena := make([]Braid, len(groups))
	in := make([]bool, len(groups)*n)
	braids := make([]*Braid, len(groups))
	size := 0
	for i, g := range groups {
		size += markMembers(g, in[i*n:(i+1)*n])
	}
	blocks := make([]*ir.Block, 0, size)
	for i, g := range groups {
		blocks = buildBraid(fp, g, &arena[i], in[i*n:(i+1)*n:(i+1)*n], blocks)
		braids[i] = &arena[i]
	}
	return braids
}

// markMembers marks the blocks of paths in in, a zeroed table of one entry
// per block of the function, and returns how many it marked.
func markMembers(paths []*profile.Path, in []bool) int {
	n := 0
	for _, p := range paths {
		for _, b := range p.Blocks {
			if !in[b] {
				in[b] = true
				n++
			}
		}
	}
	return n
}

// buildBraid merges paths into br, whose blocks markMembers marked in in, a
// table br keeps. It appends br's blocks to arena, whose capacity must hold
// them, and returns the extended arena.
func buildBraid(fp *profile.FunctionProfile, paths []*profile.Path, br *Braid, in []bool, arena []*ir.Block) []*ir.Block {
	first := paths[0].Blocks
	entry, exit := fp.F.Blocks[first[0]], fp.F.Blocks[first[len(first)-1]]
	// Topological order within the braid: entry first, exit last, and the
	// other members in function block order, which our builders keep
	// topological for acyclic sub-regions. Block.Index is a block's
	// position in F.Blocks, so this is the members sorted by index.
	start := len(arena)
	arena = append(arena, entry)
	for _, b := range fp.F.Blocks {
		if in[b.Index] && b != entry && b != exit {
			arena = append(arena, b)
		}
	}
	if exit != entry {
		arena = append(arena, exit)
	}

	*br = Braid{Region: newRegion(fp.F, KindBraid, arena[start:len(arena):len(arena)], in)}
	br.Entry = entry
	br.Exit = exit
	br.Paths = paths
	br.classifyBranches(in)
	return arena
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

// BuildPathTrees implements the DySER-style merge policy the paper
// contrasts braids with (Section IV-B "Relationship to Hyperblocks,
// Path-Trees"): paths are grouped by shared *entry only*, so a tree may
// fan out to different exit blocks with different live-out sets — the
// property that forces extra live-out plumbing and makes the paper prefer
// braids. Returned trees are ranked by total weight.
func BuildPathTrees(fp *profile.FunctionProfile, maxPaths int) []*Braid {
	return mergeGroups(fp, groupPaths(fp, maxPaths, func(p *profile.Path) braidKey {
		return braidKey{p.Blocks[0], -1}
	}))
}

// LiveOutSpread returns how many distinct exit blocks a merged region's
// constituent paths end at: 1 for braids by construction, possibly more
// for path trees (each exit implies its own live-out set).
func (br *Braid) LiveOutSpread() int {
	seen := make([]bool, len(br.F.Blocks)) // exit blocks by Block.Index
	n := 0
	for _, p := range br.Paths {
		if len(p.Blocks) > 0 {
			if e := p.Blocks[len(p.Blocks)-1]; !seen[e] {
				seen[e] = true
				n++
			}
		}
	}
	return n
}
