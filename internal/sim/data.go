package sim

import (
	"encoding/binary"
	"fmt"

	"needle/internal/ir"
	"needle/internal/mem"
	"needle/internal/ooo"
	"needle/internal/pm"
	"needle/internal/profile"
)

// TraceData is the pure serializable core of a captured Trace: the profile
// counts plus the host-model observations, with no pointers into the traced
// function and no analysis manager. TraceFromData rehydrates a Trace from it
// against a (re-parsed or rebuilt) function.
type TraceData struct {
	Profile *profile.Data
	// Occ packs the occurrences in trace order, each as uvarint(Hist) then
	// varint(Cycles). Their paths are not repeated: occurrence i executed
	// Profile.Trace[i], so the trace fixes the occurrence count.
	Occ []byte

	BaselineCycles   int64
	BaselineEnergyPJ float64
	Mix              ooo.OpMix
	CacheStats       mem.Stats
}

// Data extracts the serializable core of the trace.
func (tr *Trace) Data() *TraceData {
	return &TraceData{
		Profile:          tr.Profile.Data(),
		Occ:              packOccurrences(tr.Occ),
		BaselineCycles:   tr.BaselineCycles,
		BaselineEnergyPJ: tr.BaselineEnergyPJ,
		Mix:              tr.Mix,
		CacheStats:       tr.CacheStats,
	}
}

// TraceFromData rehydrates a Trace: the profile is rebuilt against f (see
// profile.FromData) and the trace adopts am as its analysis manager, exactly
// as a live Capture would. f must be structurally identical to the function
// the trace was captured from.
func TraceFromData(am *pm.Manager, f *ir.Function, d *TraceData) (*Trace, error) {
	am = pm.Ensure(am)
	fp, err := profile.FromData(am, f, d.Profile)
	if err != nil {
		return nil, err
	}
	occ, err := unpackOccurrences(d.Occ, len(fp.Trace))
	if err != nil {
		return nil, err
	}
	return &Trace{
		Profile:          fp,
		Occ:              occ,
		AM:               am,
		BaselineCycles:   d.BaselineCycles,
		BaselineEnergyPJ: d.BaselineEnergyPJ,
		Mix:              d.Mix,
		CacheStats:       d.CacheStats,
	}, nil
}

// packOccurrences encodes occ in the TraceData.Occ layout.
func packOccurrences(occ []Occurrence) []byte {
	// Histories fill their 64-bit register after 64 branches and then take
	// up to 10 bytes; cycle deltas take one or two. The workloads average
	// about 11 bytes per occurrence.
	buf := make([]byte, 0, 12*len(occ))
	for _, o := range occ {
		buf = binary.AppendUvarint(buf, o.Hist)
		buf = binary.AppendVarint(buf, o.Cycles)
	}
	return buf
}

// unpackOccurrences decodes exactly n occurrences from the TraceData.Occ
// layout into one exact-size slice, rejecting truncated or trailing bytes.
func unpackOccurrences(buf []byte, n int) ([]Occurrence, error) {
	occ := make([]Occurrence, n)
	for i := range occ {
		h, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("sim: packed occurrence %d of %d is truncated or malformed", i, n)
		}
		buf = buf[k:]
		c, k := binary.Varint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("sim: packed occurrence %d of %d is truncated or malformed", i, n)
		}
		buf = buf[k:]
		occ[i] = Occurrence{Hist: h, Cycles: c}
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("sim: %d trailing bytes after %d packed occurrences", len(buf), n)
	}
	return occ, nil
}
