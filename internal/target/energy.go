package target

import (
	"needle/internal/energy"
	"needle/internal/pipeline"
)

// Energy is the host energy backend: it reports the McPAT-style energy
// baseline of the captured run, the denominator of every Figure 10 net
// energy reduction.
type Energy struct{}

// Name implements pipeline.Backend.
func (Energy) Name() string { return "energy" }

// EnergyReport is the Energy backend's typed report.
type EnergyReport struct {
	// BaselinePJ is the host-only energy of the captured baseline run.
	BaselinePJ float64
	// PerOpPJ is the marginal host energy per dynamic operation at the
	// captured op mix and cache behaviour — the credit an accelerated op
	// earns when it leaves the host.
	PerOpPJ float64
}

// BackendName implements pipeline.Report.
func (*EnergyReport) BackendName() string { return "energy" }

// Evaluate implements pipeline.Backend.
func (Energy) Evaluate(a *pipeline.Artifacts) (pipeline.Report, error) {
	tr := a.Profile.Trace
	return &EnergyReport{
		BaselinePJ: tr.BaselineEnergyPJ,
		PerOpPJ:    energy.PerOpPJ(a.Config.Sim.CPU, tr.Mix, tr.CacheStats),
	}, nil
}
