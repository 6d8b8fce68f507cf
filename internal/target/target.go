// Package target provides the pluggable evaluation backends of the Needle
// pipeline's Target stage. Each backend wraps one evaluation substrate —
// the whole-system offload simulator (sim), the CGRA mapper (cgra), the
// Cyclone V synthesis estimator (hls), and the host energy model (energy) —
// behind the pipeline.Backend interface, and registers itself with the
// pipeline at init. The pipeline invokes targets only through this
// interface, so a new accelerator model plugs in by adding a backend here
// (or anywhere) and registering it; the pipeline and core packages never
// change. The interfaces live with the stage that calls them; the
// implementations and their typed reports live here.
package target

import "needle/internal/pipeline"

func init() {
	// Registration order is evaluation order; sim first, since its results
	// are the paper's headline tables.
	pipeline.Register(Sim{})
	pipeline.Register(CGRA{})
	pipeline.Register(HLS{})
	pipeline.Register(Energy{})
}
