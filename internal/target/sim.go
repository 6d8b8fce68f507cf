package target

import (
	"fmt"

	"needle/internal/pipeline"
	"needle/internal/sim"
)

// Sim is the whole-system offload backend: it reproduces the paper's
// filter-and-rank selection over the captured trace — best BL-Path under
// the oracle bound and the invocation history table (Figure 9), the braid
// choice (Figures 9, 10), and the non-speculative predicated hyperblock
// baseline of Figure 2's middle column.
type Sim struct{}

// Name implements Backend.
func (Sim) Name() string { return "sim" }

// SimReport is the Sim backend's typed report.
type SimReport struct {
	// PathOracle and PathHistory evaluate the best BL-Path offload under
	// the oracle bound and the invocation history table.
	PathOracle  sim.Result
	PathHistory sim.Result
	// BraidChoice is the filter-and-rank braid selection.
	BraidChoice sim.Candidate
	// Hyperblock is the non-speculative predicated baseline.
	Hyperblock sim.Result
}

// BackendName implements Report.
func (*SimReport) BackendName() string { return "sim" }

// Evaluate implements Backend.
func (Sim) Evaluate(a *pipeline.Artifacts) (pipeline.Report, error) {
	cfg := a.Config
	rep := &SimReport{}
	var err error

	// One rank-coded replay of the trace serves every target below.
	rp := sim.NewReplay(a.Profile.Trace)
	psp := a.Span.Child("select: path")
	rep.PathHistory, rep.PathOracle, err = sim.SelectPath(rp, cfg.Sim, cfg.SelectTopK)
	psp.End()
	if err != nil {
		return nil, fmt.Errorf("evaluating paths: %w", err)
	}
	bsp := a.Span.Child("select: braid")
	// The Frame stage framed the top braid with the same options and
	// analysis manager; SelectBraid reuses that frame.
	rep.BraidChoice, err = sim.SelectBraid(rp, a.Select.Braids, a.Frame.HotBraidFrame, cfg.Sim, cfg.SelectTopK)
	bsp.End()
	if err != nil {
		return nil, fmt.Errorf("evaluating braids: %w", err)
	}
	hsp := a.Span.Child("select: hyperblock")
	rep.Hyperblock, err = sim.EvaluateHyperblock(rp, cfg.Sim, cfg.ColdFraction)
	hsp.End()
	if err != nil {
		return nil, fmt.Errorf("evaluating hyperblock: %w", err)
	}
	return rep, nil
}
