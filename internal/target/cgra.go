package target

import (
	"needle/internal/cgra"
	"needle/internal/pipeline"
)

// CGRA is the spatial-fabric mapping backend: it schedules the hot braid
// frame on the configured CGRA and reports the mapping's timing and energy
// characteristics (Table V fabric).
type CGRA struct{}

// Name implements pipeline.Backend.
func (CGRA) Name() string { return "cgra" }

// CGRAReport is the CGRA backend's typed report. Scheduled is false (and
// every other field zero) when the workload has no hot braid frame to map.
type CGRAReport struct {
	Scheduled bool

	// DataflowCycles is the dependence-height schedule length; II the
	// initiation interval of pipelined back-to-back invocations.
	DataflowCycles int64
	II             int64
	// InvokeCycles is the full cost of one cold invocation (transfer +
	// dataflow); FailCycles adds the rollback walk on a guard failure.
	InvokeCycles int64
	FailCycles   int64
	// OpPJ is the fabric's per-op energy including routing; TransferPJ the
	// live-value marshalling energy per invocation.
	OpPJ       float64
	TransferPJ float64
}

// BackendName implements pipeline.Report.
func (*CGRAReport) BackendName() string { return "cgra" }

// Evaluate implements pipeline.Backend.
func (CGRA) Evaluate(a *pipeline.Artifacts) (pipeline.Report, error) {
	fr := a.Frame.HotBraidFrame
	if fr == nil {
		return &CGRAReport{}, nil
	}
	s := cgra.Schedule(fr, a.Config.Sim.CGRA)
	return &CGRAReport{
		Scheduled:      true,
		DataflowCycles: s.DataflowCycles,
		II:             s.II,
		InvokeCycles:   s.InvokeCycles(),
		FailCycles:     s.FailCycles(),
		OpPJ:           s.OpPJ,
		TransferPJ:     s.TransferPJ,
	}, nil
}
