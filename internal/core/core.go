// Package core ties the Needle pipeline together: profile a program's hot
// function, enumerate and rank its Ball-Larus paths, characterize its
// control flow, form braids and baseline regions, construct software
// frames, and evaluate offload on the modeled system. It is the programmatic
// equivalent of the paper's Figure 1 flow and the entry point used by the
// command-line tools, the needled daemon, the examples, and the experiment
// harness.
//
// The one entry point is the Analyzer (analyzer.go): core.New(opts...)
// with functional options (WithStore, WithJobs, WithProgress, WithObsSpan)
// and the Run/RunWorkload/RunAll methods. Run takes a *program.Program —
// any verified NIR program, whether a built-in workload instance or source
// a user just loaded — making "analyze this workload" and "analyze this
// file" the same operation; RunWorkload is the registry-backed adapter.
// The heavy lifting lives in internal/pipeline (named stages over typed
// artifacts) and internal/target (pluggable evaluation backends); the
// Analyzer flattens the staged artifacts into the Analysis struct.
package core

import (
	"fmt"

	"needle/internal/frame"
	"needle/internal/hls"
	"needle/internal/obs"
	"needle/internal/pipeline"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/program"
	"needle/internal/region"
	"needle/internal/sim"
	"needle/internal/target"
	"needle/internal/workloads"
)

// Observability counters (no-ops until obs.Enable).
var (
	obsAnalyses   = obs.GetCounter("core.analyses")
	obsSweepUnits = obs.GetCounter("core.sweep.workloads")
)

// Config controls an analysis run. It is an alias of pipeline.Config, so
// an Analyzer and a direct pipeline.Run take the same value.
type Config = pipeline.Config

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// Analysis is the complete result of running the pipeline on one program.
type Analysis struct {
	// Program is the analyzed program — always set.
	Program *program.Program
	// Workload is the registry entry the program was materialized from, or
	// nil when the analysis ran on a raw Program (needle -nir, the needled
	// service's inline-source requests).
	Workload *workloads.Workload
	Config   Config

	// AM is the analysis manager of the analyzed function (the Opt stage's
	// under Config.Opt, else the Inline stage's); later frame or region
	// construction against Profile.F should reuse it. Analyses that shared
	// artifacts through a store share it.
	AM *pm.Manager

	// Artifacts is the staged artifact set this analysis was flattened
	// from; Artifacts.Report exposes the typed report of every registered
	// target backend (including cgra and energy, which have no flattened
	// field here).
	Artifacts *pipeline.Artifacts

	// Trace is the captured baseline execution (profile + host costs).
	Trace *sim.Trace
	// Profile is the ranked Ball-Larus path profile.
	Profile *profile.FunctionProfile
	// CFStats is the static control-flow characterization (Table I).
	CFStats region.ControlFlowStats
	// Braids holds every braid, ranked by weight (Table IV).
	Braids []*region.Braid

	// PathOracle and PathHistory evaluate the best BL-Path offload under
	// the oracle bound and the invocation history table (Figure 9).
	PathOracle  sim.Result
	PathHistory sim.Result
	// BraidChoice is the filter-and-rank braid selection (Figures 9, 10).
	BraidChoice sim.Candidate
	// HyperblockResult is the non-speculative predicated baseline of
	// Figure 2's design-space comparison.
	HyperblockResult sim.Result

	// HotBraidFrame is the software frame of the top braid, and HLS its
	// estimated FPGA synthesis (Section VI). HotBraidFrame is nil when the
	// workload formed no braids, or when frame construction for the hot
	// braid failed — FrameErr distinguishes the two: it records the
	// frame.Build error, and is nil when no build was attempted or the
	// build succeeded. When HotBraidFrame is nil, HLS is the zero Report.
	HotBraidFrame *frame.Frame
	FrameErr      error
	HLS           hls.Report
}

// fromArtifacts flattens the staged artifacts into the Analysis struct,
// pulling the typed reports of the sim and hls backends into their
// dedicated fields.
func fromArtifacts(arts *pipeline.Artifacts) (*Analysis, error) {
	am, _ := arts.HotFunc()
	a := &Analysis{
		Program:       arts.Program,
		Config:        arts.Config,
		AM:            am,
		Artifacts:     arts,
		Trace:         arts.Profile.Trace,
		Profile:       arts.Profile.Trace.Profile,
		CFStats:       arts.Select.CFStats,
		Braids:        arts.Select.Braids,
		HotBraidFrame: arts.Frame.HotBraidFrame,
		FrameErr:      arts.Frame.FrameErr,
	}
	rep, ok := arts.Report("sim").(*target.SimReport)
	if !ok {
		return nil, fmt.Errorf("core: %s: no sim target report (backend not registered?)", a.Program.Name)
	}
	a.PathOracle = rep.PathOracle
	a.PathHistory = rep.PathHistory
	a.BraidChoice = rep.BraidChoice
	a.HyperblockResult = rep.Hyperblock
	if h, ok := arts.Report("hls").(*target.HLSReport); ok && h.Synthesized {
		a.HLS = h.Report
	}
	return a, nil
}

// HottestBraid returns the top-ranked braid, or nil.
func (a *Analysis) HottestBraid() *region.Braid {
	if len(a.Braids) == 0 {
		return nil
	}
	return a.Braids[0]
}

// PathFrame builds the software frame for one of the profile's paths.
func (a *Analysis) PathFrame(rank int) (*frame.Frame, error) {
	paths := a.Profile.Paths
	if rank < 0 || rank >= len(paths) {
		return nil, fmt.Errorf("core: %s has no path of rank %d", a.Program.Name, rank)
	}
	r := region.FromPath(a.Profile.F, paths[rank])
	return frame.Build(a.AM, r, a.Config.Sim.Frame)
}

// Superblock builds the edge-profile baseline region seeded at the hottest
// path's entry (Section II-B comparison).
func (a *Analysis) Superblock() *region.Superblock {
	hot := a.Profile.HottestPath()
	if hot == nil {
		return nil
	}
	return region.BuildSuperblock(a.Profile, hot.Blocks[0], 0)
}

// Hyperblock builds the if-conversion baseline region at the hottest path's
// entry (Figure 5).
func (a *Analysis) Hyperblock() *region.Hyperblock {
	hot := a.Profile.HottestPath()
	if hot == nil {
		return nil
	}
	return region.BuildHyperblock(a.AM, a.Profile, hot.Blocks[0], a.Config.ColdFraction)
}
