package pipeline

import (
	"needle/internal/hls"
	"needle/internal/sim"
)

// Backend is one of the Target stage's two evaluations: sim, the paper's
// filter-and-rank offload selection over the captured trace, and hls, the
// synthesis estimate of the hot-braid frame. The stage runs both, in
// Backends order, into one TargetArtifact, each under a "target: <name>"
// span.
//
// An evaluation treats the artifacts as read-only: with a Store in play
// the upstream artifacts are shared across runs and goroutines.
type Backend struct {
	name string
	eval func(a *Artifacts, out *TargetArtifact) error
}

// Name returns the evaluation's name ("sim" or "hls").
func (b Backend) Name() string { return b.name }

// Evaluate runs the evaluation on its own, into a fresh TargetArtifact
// whose other fields stay zero.
func (b Backend) Evaluate(a *Artifacts) (*TargetArtifact, error) {
	out := &TargetArtifact{}
	if err := b.eval(a, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Backends returns the Target stage's evaluations in the order it runs
// them: sim, then hls.
func Backends() []Backend {
	return []Backend{{"sim", evalSim}, {"hls", evalHLS}}
}

// evalSim reproduces the paper's filter-and-rank selection — best BL-Path
// under the oracle bound and the invocation history table (Figure 9), the
// braid choice (Figures 9, 10), and the non-speculative predicated
// hyperblock baseline of Figure 2's middle column. It builds the candidate
// table, evaluates every candidate in one walk of the captured trace, and
// scans the table for each selection.
func evalSim(a *Artifacts, out *TargetArtifact) error {
	cfg := a.Config
	bsp := a.Span.Child("target: sim: build")
	// The Frame stage framed the top braid with the same options and
	// analysis manager; the braid candidates reuse that frame.
	cands, err := sim.NewCandidates(a.Profile.Trace, a.Select.Braids, a.Frame.HotBraidFrame, cfg.Sim, cfg.SelectTopK, cfg.ColdFraction)
	bsp.End()
	if err != nil {
		return err
	}
	rsp := a.Span.Child("target: sim: replay")
	cands.Replay()
	rsp.End()
	out.BraidChoice, out.Hyperblock = cands.BraidChoice(), cands.Hyperblock()
	out.PathHistory, out.PathOracle = cands.PathChoice()
	return nil
}

// evalHLS estimates mapping the hot-braid frame onto the paper's Altera
// Cyclone V device (Section VI, "HLS for NEEDLE identified Braids"). With
// no frame the estimate stays the zero Report.
func evalHLS(a *Artifacts, out *TargetArtifact) error {
	if fr := a.Frame.HotBraidFrame; fr != nil {
		out.HLS = hls.Synthesize(fr, hls.CycloneV())
	}
	return nil
}
