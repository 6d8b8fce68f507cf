package region

import (
	"fmt"
	"math"

	"needle/internal/profile"
	"needle/internal/wire"
)

// BraidData is the pure serializable core of a Braid: the IDs of its merged
// paths, in merge order. Everything else about a braid — block set, entry
// and exit, topological order, guard/IF classification — is a deterministic
// function of those paths, recomputed by BraidsFromData.
type BraidData struct {
	PathIDs []int64
}

// Data extracts the serializable core of the braid.
func (br *Braid) Data() BraidData {
	d := BraidData{PathIDs: make([]int64, len(br.Paths))}
	for i, p := range br.Paths {
		d.PathIDs[i] = p.ID
	}
	return d
}

// BraidsFromData rebuilds braids from their merged-path IDs against a
// (possibly rehydrated) profile, reproducing BuildBraids' braids exactly, in
// the order given. Each braid's paths must all exist in fp and agree on
// entry and exit blocks, as the original braid's did. The braids, their
// path lists, membership tables and block lists are windows of one arena
// each, however many braids there are.
func BraidsFromData(fp *profile.FunctionProfile, ds []BraidData) ([]*Braid, error) {
	size := 0
	for _, d := range ds {
		if len(d.PathIDs) == 0 {
			return nil, fmt.Errorf("region: braid data has no paths")
		}
		size += len(d.PathIDs)
	}
	arena := make([]*profile.Path, size)
	groups := make([][]*profile.Path, len(ds))
	for i, d := range ds {
		g := arena[:len(d.PathIDs):len(d.PathIDs)]
		arena = arena[len(d.PathIDs):]
		for j, id := range d.PathIDs {
			if g[j] = fp.PathByID(id); g[j] == nil {
				return nil, fmt.Errorf("region: braid path %d not in profile of %s", id, fp.F.Name)
			}
		}
		groups[i] = g
	}
	return buildBraids(fp, groups), nil
}

// Append appends d in its positional layout: the path IDs as a uvarint
// list.
func (d BraidData) Append(b []byte) []byte { return wire.AppendUints(b, d.PathIDs) }

// ReadBraidData reads the layout BraidData.Append writes. The result is
// meaningful only when r has not failed.
func ReadBraidData(r *wire.Reader) BraidData {
	return BraidData{PathIDs: wire.Uints[int64](r, math.MaxInt)}
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
