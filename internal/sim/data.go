package sim

import (
	"fmt"
	"math"

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
// no analysis manager. Branch histories are not stored: the replay derives
// them from the path trace (see rankHist).
type TraceData struct {
	Profile *profile.Data
	// Cycles packs each occurrence's host cycles as varints, in trace
	// order: the occurrences of each run of Profile.Runs in turn, as
	// Trace.Cycles holds them.
	Cycles []byte

	BaselineCycles   int64
	BaselineEnergyPJ float64
	Mix              ooo.OpMix
	CacheStats       mem.Stats
}

// Data extracts the serializable core of the trace. Like profile's Data, it
// fails when the path trace does not reproduce what was captured. The
// packed cycles are the trace's own bytes, not a copy: indexRuns built the
// run sums from them, so they hold one varint per traced path.
func (tr *Trace) Data() (*TraceData, error) {
	pd, err := tr.Profile.Data()
	if err != nil {
		return nil, err
	}
	return &TraceData{
		Profile:          pd,
		Cycles:           tr.Cycles,
		BaselineCycles:   tr.BaselineCycles,
		BaselineEnergyPJ: tr.BaselineEnergyPJ,
		Mix:              tr.Mix,
		CacheStats:       tr.CacheStats,
	}, nil
}

// TraceFromData rehydrates a Trace: the profile is rebuilt against f (see
// profile.FromData), the packed cycles kept as they are, each run's host
// cycles summed and its first varint found in one walk of them (see
// indexRuns), the per-rank history table built (see rankHist), and the
// trace adopts am as its analysis manager, exactly as a live Capture
// would. f must be structurally identical to the function the trace was
// captured from. Packed cycles that do not hold exactly one varint per
// traced path are an error, found before anything is allocated when the
// runs claim more occurrences than the packed bytes can hold.
func TraceFromData(am *pm.Manager, f *ir.Function, d *TraceData) (*Trace, error) {
	n := profile.Occurrences(d.Profile.Runs)
	if r := wire.NewReader(d.Cycles); !r.Fits(n) {
		return nil, fmt.Errorf("sim: packed cycles for %d traced paths: %w", n, r.Err())
	}
	am = pm.Ensure(am)
	fp, err := profile.FromData(am, f, d.Profile)
	if err != nil {
		return nil, err
	}
	sums, offs, err := indexRuns(fp.Runs, d.Cycles)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	return &Trace{
		Profile:          fp,
		Cycles:           d.Cycles,
		RunCycles:        sums,
		Occ:              make([]struct{}, n),
		offs:             offs,
		hist:             rankHists(fp),
		AM:               am,
		BaselineCycles:   d.BaselineCycles,
		BaselineEnergyPJ: d.BaselineEnergyPJ,
		Mix:              d.Mix,
		CacheStats:       d.CacheStats,
	}, nil
}

// indexRuns decodes each varint of cycles once, one per occurrence of
// runs, and returns each run's host cycles summed and the byte where its
// first varint starts. Too few varints, too many, or a truncated one is an
// error, and so are packed cycles too long for a 4-byte offset.
func indexRuns(runs []profile.Run, cycles []byte) ([]int64, []uint32, error) {
	if uint64(len(cycles)) > math.MaxUint32 {
		return nil, nil, fmt.Errorf("%d bytes of packed cycles, more than a run offset addresses", len(cycles))
	}
	sums := make([]int64, len(runs))
	offs := make([]uint32, len(runs))
	r := wire.NewReader(cycles)
	for j, run := range runs {
		offs[j] = uint32(r.Offset())
		for range run.Len {
			sums[j] += r.Varint()
		}
	}
	if err := r.Done(); err != nil {
		return nil, nil, fmt.Errorf("packed cycles for %d traced paths: %w", profile.Occurrences(runs), err)
	}
	return sums, offs, nil
}

// rankHist is what one occurrence of a path shifts into the global
// branch-history register, a 1 per taken arm (Blocks[0]) of a condbr. An
// occurrence indexes the register as the one before it completes, before
// the branch ending that one shifts in: n bits for its inner branches,
// then, on a path ending in a condbr (a back edge), s = 1 bit, set when
// the next occurrence starts at the taken arm; inside a run, self. So
// occurrence i >= 1 of a run has i·w - s bits shifted in, w = n + s, and
// from the first i with i·max(w, 1) >= b + s, the stable point under a
// b-bit mask, every history's low b bits are the run's own pattern.
type rankHist struct {
	bits uint64 // inner branch outcomes, the latest in bit 0; the latest 64
	// full is the history of occurrence ff of a run and every later one,
	// once all 64 bits are the path's own (never, ff MaxInt32, when w is 0).
	full  uint64
	ff    int32
	first int32 // Index of the path's first block
	taken int32 // Index of the taken arm of the path's ending condbr, or -1
	// n counts up to 64, as a longer shift clears the register alike.
	n, s, self uint8
}

// rankHists builds the history table of fp's paths, indexed by rank,
// reading each block's terminator once.
func rankHists(fp *profile.FunctionProfile) []rankHist {
	// taken is, by Block.Index, the Index of the taken arm (Blocks[0]) of
	// the condbr ending the block, or -1 when it ends otherwise.
	taken := make([]int32, len(fp.F.Blocks))
	for _, b := range fp.F.Blocks {
		taken[b.Index] = -1
		if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
			taken[b.Index] = int32(t.Blocks[0].Index)
		}
	}
	tab := make([]rankHist, len(fp.Paths))
	for r, p := range fp.Paths {
		e := &tab[r]
		w := 0
		bs := p.Blocks
		for i := 1; i < len(bs); i++ {
			if t := taken[bs[i-1]]; t >= 0 {
				e.bits = e.bits<<1 | b2u(t == bs[i])
				w++
			}
		}
		e.first, e.taken, e.n = bs[0], taken[bs[len(bs)-1]], uint8(min(w, 64))
		if e.taken >= 0 {
			e.s, w = 1, w+1
			e.self = uint8(b2u(e.taken == bs[0]))
		}
		e.setFull(w)
	}
	return tab
}

// setFull sets ff and full from w.
func (e *rankHist) setFull(w int) {
	if e.ff = math.MaxInt32; w == 0 {
		return
	}
	e.ff = int32((64 + int(e.s) + w - 1) / w)
	r := e.run(0, 0) // a run begun with an empty register
	e.full = r.x1
	for range e.ff - 1 {
		e.full = e.full<<r.w | r.pw
	}
}

// runHist is what walkHistory reads of a run: its first two histories,
// x(i+1) = x(i)<<w | pw for the later ones (a shift by 64 or more clears
// it), and max(w, 1) and s, which place its stable point (see rankHist).
type runHist struct {
	x0, x1, pw uint64
	w, step, s uint8
}

// run is the runHist of a run begun with register h and first history x0.
func (e *rankHist) run(h, x0 uint64) runHist {
	return runHist{x0, h<<e.n | e.bits, uint64(e.self)<<e.n | e.bits, e.n + e.s, max(e.n+e.s, 1), e.s}
}

// fillHists sets out[i] to the runHist of run j+i, the first begun with
// register h and first history snap (0 and 0 for run 0), and returns those
// of the run after the last, stepping runs too short to end on full.
func fillHists(tab []rankHist, runs []profile.Run, j int, h, snap uint64, out []runHist) (uint64, uint64) {
	for i := range out {
		run := runs[j+i]
		e := &tab[run.Rank]
		r := e.run(h, snap)
		out[i] = r
		snap = e.full // the history after the run
		if run.Len < e.ff {
			snap = r.x1
			for range run.Len - 1 {
				snap = snap<<r.w | r.pw
			}
		}
		h = snap
		if e.s > 0 && j+i+1 < len(runs) {
			h = snap<<1 | b2u(e.taken == tab[runs[j+i+1].Rank].first)
		}
	}
	return h, snap
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
