package sim

import (
	"fmt"
	"slices"

	"needle/internal/ir"
	"needle/internal/mem"
	"needle/internal/ooo"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/wire"
)

// TraceData is the pure serializable core of a captured Trace: the path
// trace plus what only the host model observed — each occurrence's cycles
// and the scalar baselines — with no pointers into the traced function and
// no analysis manager. Branch histories are not stored: TraceFromData
// rebuilds them from the path trace against a (decoded or rebuilt)
// function.
type TraceData struct {
	Profile *profile.Data
	// Cycles packs each occurrence's host cycles as varints, in trace
	// order: the occurrences of each run of Profile.Runs in turn. They stay
	// packed as stored, so TraceFromData decodes them straight into the
	// trace's occurrences.
	Cycles []byte

	BaselineCycles   int64
	BaselineEnergyPJ float64
	Mix              ooo.OpMix
	CacheStats       mem.Stats
}

// Data extracts the serializable core of the trace. Like profile's Data, it
// fails when the path trace does not reproduce what was captured — here,
// any occurrence's branch history or any run's host cycles — so a stored
// trace always rehydrates to the captured one.
func (tr *Trace) Data() (*TraceData, error) {
	pd, err := tr.Profile.Data()
	if err != nil {
		return nil, err
	}
	if n := profile.Occurrences(pd.Runs); len(tr.Occ) != n || len(tr.RunCycles) != len(pd.Runs) {
		return nil, fmt.Errorf("sim: %d occurrences and %d run sums for %d traced paths in %d runs",
			len(tr.Occ), len(tr.RunCycles), n, len(pd.Runs))
	}
	occ := slices.Clone(tr.Occ)
	sums := make([]int64, len(pd.Runs))
	fillHist(tr.Profile.Paths, pd.Runs, occ, sums)
	// Cycle deltas take one or two bytes each on the workloads.
	cycles := make([]byte, 0, 2*len(tr.Occ))
	for i, o := range tr.Occ {
		if occ[i].Hist != o.Hist {
			return nil, fmt.Errorf("sim: occurrence %d of %s: path trace implies history %#x, captured %#x",
				i, tr.Profile.F.Name, occ[i].Hist, o.Hist)
		}
		cycles = wire.AppendVarint(cycles, o.Cycles)
	}
	for j, sum := range sums {
		if sum != tr.RunCycles[j] {
			return nil, fmt.Errorf("sim: run %d of %s: occurrences cost %d host cycles, run sum %d",
				j, tr.Profile.F.Name, sum, tr.RunCycles[j])
		}
	}
	return &TraceData{
		Profile:          pd,
		Cycles:           cycles,
		BaselineCycles:   tr.BaselineCycles,
		BaselineEnergyPJ: tr.BaselineEnergyPJ,
		Mix:              tr.Mix,
		CacheStats:       tr.CacheStats,
	}, nil
}

// TraceFromData rehydrates a Trace: the profile is rebuilt against f (see
// profile.FromData), every occurrence's branch history is rebuilt from the
// path trace and each run's host cycles summed (see fillHist), and the
// trace adopts am as its analysis manager, exactly as a live Capture would.
// f must be structurally identical to the function the trace was captured
// from. Packed cycles that do not hold exactly one varint per traced path
// are an error, found before anything is allocated when the runs claim
// more occurrences than the packed bytes can hold.
func TraceFromData(am *pm.Manager, f *ir.Function, d *TraceData) (*Trace, error) {
	n := profile.Occurrences(d.Profile.Runs)
	r := wire.NewReader(d.Cycles)
	if !r.Fits(n) {
		return nil, fmt.Errorf("sim: packed cycles for %d traced paths: %w", n, r.Err())
	}
	am = pm.Ensure(am)
	fp, err := profile.FromData(am, f, d.Profile)
	if err != nil {
		return nil, err
	}
	occ := make([]Occurrence, n)
	for i := range occ {
		occ[i].Cycles = r.Varint()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("sim: packed cycles for %d traced paths: %w", n, err)
	}
	sums := make([]int64, len(fp.Runs))
	fillHist(fp.Paths, fp.Runs, occ, sums)
	return &Trace{
		Profile:          fp,
		Occ:              occ,
		RunCycles:        sums,
		AM:               am,
		BaselineCycles:   d.BaselineCycles,
		BaselineEnergyPJ: d.BaselineEnergyPJ,
		Mix:              d.Mix,
		CacheStats:       d.CacheStats,
	}, nil
}

// fillHist sets every occ[i].Hist to the branch-history register Capture
// snapshots for occurrence i, in one pass over the path trace (table is
// indexed by rank). Capture takes occurrence i's snapshot when occurrence
// i-1 completes, before the branch that ends i-1 shifts in; so the
// register is the outcome of every conditional branch inside occurrences
// 0..i-1 and of every boundary branch from one occurrence into the next
// before i-1, oldest first, a 1 for the taken arm (Blocks[0]). Each path
// contributes its inner branches as one (bits, length) entry; a boundary
// branch is the one ending a path that ends in a condbr (a back edge), its
// bit telling whether the next occurrence starts at the taken arm. Inside
// a run the next occurrence is the same path, so each run looks its path
// up once and knows its boundary bit before it starts. The same pass sums
// each run's host cycles, read from occ, into sums (indexed like runs).
func fillHist(table []*profile.Path, runs []profile.Run, occ []Occurrence, sums []int64) {
	type entry struct {
		bits  uint64    // inner branch outcomes, the latest in bit 0
		n     uint      // inner branches; bits keeps the latest 64
		first *ir.Block // the path's first block
		taken *ir.Block // Blocks[0] of the path's ending condbr, or nil
	}
	tab := make([]entry, len(table))
	for r, p := range table {
		e := &tab[r]
		for i := 1; i < len(p.Blocks); i++ {
			if t := p.Blocks[i-1].Term(); t.Op == ir.OpCondBr {
				e.bits = e.bits<<1 | b2u(t.Blocks[0] == p.Blocks[i])
				e.n++
			}
		}
		e.first = p.Blocks[0]
		if t := p.Blocks[len(p.Blocks)-1].Term(); t.Op == ir.OpCondBr {
			e.taken = t.Blocks[0]
		}
	}
	var h, snap uint64
	k := 0
	for j, run := range runs {
		e := &tab[run.Rank]
		// A boundary branch shifts in one bit: inside the run, whether the
		// path's own first block is the taken arm.
		var shift uint
		var self uint64
		if e.taken != nil {
			shift, self = 1, b2u(e.taken == e.first)
		}
		var sum int64
		for last := k + int(run.Len) - 1; k < last; k++ {
			occ[k].Hist = snap
			sum += occ[k].Cycles
			h = h<<e.n | e.bits // a shift by 64 or more clears h
			snap = h
			h = h<<shift | self
		}
		occ[k].Hist = snap
		sums[j] = sum + occ[k].Cycles
		h = h<<e.n | e.bits
		snap = h
		if e.taken != nil && j+1 < len(runs) {
			h = h<<1 | b2u(e.taken == tab[runs[j+1].Rank].first)
		}
		k++
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Append appends d in its positional layout (docs/PIPELINE.md): the scalar
// observations, the path trace (profile.Data.Append), then the packed
// cycles, which run to the end of the payload.
func (d *TraceData) Append(b []byte) []byte {
	b = wire.AppendVarint(b, d.BaselineCycles)
	b = wire.AppendFloat64(b, d.BaselineEnergyPJ)
	for _, v := range [...]int64{d.Mix.Int, d.Mix.FP, d.Mix.Mem, d.Mix.Total,
		d.CacheStats.Accesses, d.CacheStats.L1Hits, d.CacheStats.L1Misses} {
		b = wire.AppendVarint(b, v)
	}
	b = d.Profile.Append(b)
	return append(b, d.Cycles...)
}

// ReadTraceData reads the layout Append writes, taking the packed cycles
// as the rest of r's bytes without copying them; TraceFromData checks
// their count. The result is meaningful only when r has not failed.
func ReadTraceData(r *wire.Reader) *TraceData {
	d := &TraceData{BaselineCycles: r.Varint(), BaselineEnergyPJ: r.Float64()}
	for _, v := range [...]*int64{&d.Mix.Int, &d.Mix.FP, &d.Mix.Mem, &d.Mix.Total,
		&d.CacheStats.Accesses, &d.CacheStats.L1Hits, &d.CacheStats.L1Misses} {
		*v = r.Varint()
	}
	d.Profile = profile.ReadData(r)
	d.Cycles = r.Rest()
	return d
}
