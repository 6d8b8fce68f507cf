package target

import (
	"needle/internal/pipeline"
	"needle/internal/sim"
)

// Sim is the whole-system offload backend: it reproduces the paper's
// filter-and-rank selection over the captured trace — best BL-Path under
// the oracle bound and the invocation history table (Figure 9), the braid
// choice (Figures 9, 10), and the non-speculative predicated hyperblock
// baseline of Figure 2's middle column.
type Sim struct{}

// Name implements pipeline.Backend.
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

// BackendName implements pipeline.Report.
func (*SimReport) BackendName() string { return "sim" }

// Evaluate implements Backend: it builds the candidate table, evaluates
// every candidate in one walk of the captured trace, and scans the table
// for each selection.
func (Sim) Evaluate(a *pipeline.Artifacts) (pipeline.Report, error) {
	cfg := a.Config
	bsp := a.Span.Child("target: sim: build")
	// The Frame stage framed the top braid with the same options and
	// analysis manager; the braid candidates reuse that frame.
	cands, err := sim.NewCandidates(a.Profile.Trace, a.Select.Braids, a.Frame.HotBraidFrame, cfg.Sim, cfg.SelectTopK, cfg.ColdFraction)
	bsp.End()
	if err != nil {
		return nil, err
	}
	rsp := a.Span.Child("target: sim: replay")
	cands.Replay()
	rsp.End()
	rep := &SimReport{BraidChoice: cands.BraidChoice(), Hyperblock: cands.Hyperblock()}
	rep.PathHistory, rep.PathOracle = cands.PathChoice()
	return rep, nil
}
