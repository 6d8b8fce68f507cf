package target

import (
	"needle/internal/hls"
	"needle/internal/pipeline"
)

// HLS is the FPGA synthesis backend: it estimates mapping the hot braid
// frame onto the paper's Altera Cyclone V device (Section VI, "HLS for
// NEEDLE identified Braids").
type HLS struct{}

// Name implements pipeline.Backend.
func (HLS) Name() string { return "hls" }

// HLSReport is the HLS backend's typed report. Synthesized is false (and
// the embedded report zero) when the workload has no hot braid frame.
type HLSReport struct {
	Synthesized bool
	hls.Report
}

// BackendName implements pipeline.Report.
func (*HLSReport) BackendName() string { return "hls" }

// Evaluate implements pipeline.Backend.
func (HLS) Evaluate(a *pipeline.Artifacts) (pipeline.Report, error) {
	fr := a.Frame.HotBraidFrame
	if fr == nil {
		return &HLSReport{}, nil
	}
	return &HLSReport{Synthesized: true, Report: hls.Synthesize(fr, hls.CycloneV())}, nil
}
