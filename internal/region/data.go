package region

import (
	"fmt"
	"math"

	"needle/internal/profile"
	"needle/internal/wire"
)

// BraidData is the pure serializable core of a Braid: its merged paths,
// each by its rank in the profile, in merge order (ascending rank).
// Everything else about a braid — block set, entry and exit, topological
// order, guard/IF classification — is a deterministic function of those
// paths, recomputed by BraidsFromData.
type BraidData struct {
	Ranks []int32
}

// Data extracts the serializable core of the braid, whose paths are fp's.
func (br *Braid) Data(fp *profile.FunctionProfile) BraidData {
	d := BraidData{Ranks: make([]int32, len(br.Paths))}
	for i, p := range br.Paths {
		d.Ranks[i] = int32(fp.Rank(p))
	}
	return d
}

// BraidsFromData rebuilds braids from their merged paths' ranks against a
// (possibly rehydrated) profile, reproducing BuildBraids' braids exactly, in
// the order given. Each braid must list at least one path, its ranks must
// ascend and lie within fp's table, and its paths must agree on entry and
// exit blocks, as the original braid's did. The braids, their path lists,
// membership tables and block lists are windows of one arena each, however
// many braids there are.
func BraidsFromData(fp *profile.FunctionProfile, ds []BraidData) ([]*Braid, error) {
	size := 0
	for _, d := range ds {
		if err := checkBraid(fp, d.Ranks); err != nil {
			return nil, err
		}
		size += len(d.Ranks)
	}
	arena := make([]*profile.Path, size)
	groups := make([][]*profile.Path, len(ds))
	for i, d := range ds {
		g := arena[:len(d.Ranks):len(d.Ranks)]
		arena = arena[len(d.Ranks):]
		for j, r := range d.Ranks {
			g[j] = fp.Paths[r]
		}
		groups[i] = g
	}
	return buildBraids(fp, groups), nil
}

// checkBraid reports why ranks cannot be a braid of fp's paths, if they
// cannot.
func checkBraid(fp *profile.FunctionProfile, ranks []int32) error {
	if len(ranks) == 0 {
		return fmt.Errorf("region: braid data has no paths")
	}
	var entry, exit int32
	for j, r := range ranks {
		if r < 0 || int(r) >= len(fp.Paths) {
			return fmt.Errorf("region: braid path rank %d not in profile of %s (%d paths)", r, fp.F.Name, len(fp.Paths))
		}
		if j > 0 && r <= ranks[j-1] {
			return fmt.Errorf("region: braid path ranks %d and %d of %s out of merge order", ranks[j-1], r, fp.F.Name)
		}
		bs := fp.Paths[r].Blocks
		if j == 0 {
			entry, exit = bs[0], bs[len(bs)-1]
		} else if bs[0] != entry || bs[len(bs)-1] != exit {
			return fmt.Errorf("region: braid paths of ranks %d and %d of %s differ in entry or exit", ranks[0], r, fp.F.Name)
		}
	}
	return nil
}

// Append appends d in its positional layout: the ranks as a uvarint list.
func (d BraidData) Append(b []byte) []byte { return wire.AppendUints(b, d.Ranks) }

// ReadBraidData reads the layout BraidData.Append writes. It bounds each
// rank by math.MaxInt32 only; BraidsFromData checks them against the
// profile. The result is meaningful only when r has not failed.
func ReadBraidData(r *wire.Reader) BraidData {
	return BraidData{Ranks: wire.Uints[int32](r, math.MaxInt32)}
}

// Append appends s in its positional layout: the two averages as float64s,
// then the three counts as varints, in field order.
func (s ControlFlowStats) Append(b []byte) []byte {
	b = wire.AppendFloat64(b, s.AvgBranchMem)
	b = wire.AppendFloat64(b, s.AvgMemBranch)
	b = wire.AppendVarint(b, int64(s.PredicationBits))
	b = wire.AppendVarint(b, int64(s.BackwardBranches))
	return wire.AppendVarint(b, int64(s.Branches))
}

// ReadControlFlowStats reads the layout ControlFlowStats.Append writes.
func ReadControlFlowStats(r *wire.Reader) ControlFlowStats {
	return ControlFlowStats{
		AvgBranchMem:     r.Float64(),
		AvgMemBranch:     r.Float64(),
		PredicationBits:  r.Int(),
		BackwardBranches: r.Int(),
		Branches:         r.Int(),
	}
}
