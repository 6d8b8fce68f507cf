package region

import (
	"slices"

	"needle/internal/ir"
	"needle/internal/profile"
)

// Superblock is the edge-profile-guided trace baseline (Section II-B):
// starting from a seed block, the trace repeatedly follows the most
// frequently executed successor edge. Superblocks are single entry,
// multiple exit, with a single flow of control.
//
// Because each extension decision is local to one branch, overlapping paths
// can mislead construction: the resulting block sequence may never occur in
// actual execution ("infeasible" superblocks, Figure 3), or may not be the
// hottest executed path.
type Superblock struct {
	Region

	// Feasible reports whether the superblock's block sequence occurs
	// contiguously in at least one executed Ball-Larus path.
	Feasible bool
	// HottestPath reports whether the sequence equals the hottest path.
	HottestPath bool
}

// BuildSuperblock grows a superblock from seed using the edge profile.
// Growth follows the highest-frequency successor edge and stops at back
// edges, at blocks already in the trace, at returns, and when the best
// edge's bias falls below minBias (pass 0 to grow maximally).
func BuildSuperblock(fp *profile.FunctionProfile, seed *ir.Block, minBias float64) *Superblock {
	var blocks []*ir.Block
	in := make([]bool, len(fp.F.Blocks)) // trace membership by Block.Index
	cur := seed
	for cur != nil && !in[cur.Index] {
		blocks = append(blocks, cur)
		in[cur.Index] = true
		t := cur.Term()
		if t == nil || t.Op == ir.OpRet {
			break
		}
		var best *ir.Block
		var bestCount, total int64
		for _, s := range t.Blocks {
			c := fp.EdgeCounts[profile.Edge{From: cur.Index, To: s.Index}]
			total += c
			if best == nil || c > bestCount {
				best, bestCount = s, c
			}
		}
		if best == nil || bestCount == 0 {
			break
		}
		if minBias > 0 && float64(bestCount) < minBias*float64(total) {
			break
		}
		if fp.DAG.IsBackEdge(cur, best) {
			break
		}
		cur = best
	}

	sb := &Superblock{Region: newRegion(fp.F, KindSuperblock, blocks, in)}
	seq := make([]int32, len(blocks)) // by Block.Index, as paths hold them
	for i, b := range blocks {
		seq[i] = int32(b.Index)
	}
	sb.Feasible = sequenceExecuted(fp, seq)
	if hot := fp.HottestPath(); hot != nil {
		sb.HottestPath = slices.Equal(seq, hot.Blocks)
	}
	return sb
}

// sequenceExecuted reports whether seq appears as a contiguous subsequence
// of some executed path's block sequence.
func sequenceExecuted(fp *profile.FunctionProfile, seq []int32) bool {
	if len(seq) == 0 {
		return false
	}
	for _, p := range fp.Paths {
		if containsSeq(p.Blocks, seq) {
			return true
		}
	}
	return false
}

func containsSeq(haystack, needle []int32) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if slices.Equal(haystack[i:i+len(needle)], needle) {
			return true
		}
	}
	return false
}
