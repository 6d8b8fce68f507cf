package profile

import (
	"fmt"

	"needle/internal/ballarus"
	"needle/internal/ir"
	"needle/internal/pm"
)

// Data is the pure serializable core of a FunctionProfile: everything the
// profile records about an execution, with no pointers into the profiled
// function. Paths are reduced to their (ID, Freq) counts — the decoded block
// sequences, per-path op counts, weights, and ranking are all deterministic
// functions of the counts and the function's Ball-Larus DAG, so FromData
// reconstructs them bit-for-bit.
type Data struct {
	// Counts maps executed path ID to its execution count (the profiler's
	// raw accumulator, and the seed Finish ranks from).
	Counts map[int64]int64
	// Trace is the executed path-ID sequence (empty when trace recording
	// was off).
	Trace []int64

	EdgeCounts  map[Edge]int64
	BlockCounts []int64
}

// Data extracts the serializable core of the profile.
func (fp *FunctionProfile) Data() *Data {
	d := &Data{
		Counts:      make(map[int64]int64, len(fp.Paths)),
		Trace:       fp.Trace,
		EdgeCounts:  fp.EdgeCounts,
		BlockCounts: fp.BlockCounts,
	}
	for _, p := range fp.Paths {
		d.Counts[p.ID] = p.Freq
	}
	return d
}

// FromData rehydrates a FunctionProfile against f: it rebuilds the
// Ball-Larus DAG (served by am; nil for a one-shot manager), decodes every
// counted path to its block sequence, and ranks exactly as Collector.Finish
// does. The result is indistinguishable from the profile the collector
// produced in the process that ran the workload, provided f is structurally
// identical to the profiled function (same blocks in the same order).
func FromData(am *pm.Manager, f *ir.Function, d *Data) (*FunctionProfile, error) {
	dag, err := ballarus.Build(pm.Ensure(am), f)
	if err != nil {
		return nil, fmt.Errorf("profile: rebuilding DAG for %s: %w", f.Name, err)
	}
	if len(d.BlockCounts) != len(f.Blocks) {
		return nil, fmt.Errorf("profile: data has %d block counts, %s has %d blocks",
			len(d.BlockCounts), f.Name, len(f.Blocks))
	}
	fp := &FunctionProfile{
		F:           f,
		DAG:         dag,
		Trace:       d.Trace,
		EdgeCounts:  d.EdgeCounts,
		BlockCounts: d.BlockCounts,
	}
	if err := fp.rankCounts(d.Counts); err != nil {
		return nil, err
	}
	return fp, nil
}
