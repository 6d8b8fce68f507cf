// Package sim is the whole-system simulator of Section VI: it runs a
// workload once on the modeled host to capture a cycle- and history-
// annotated path trace, then evaluates offload targets (BL-Path or Braid
// frames on the CGRA) against that trace under different invocation
// predictors. The evaluation follows the paper's conservative model: guard
// failures are detected only at the end of an invocation, the undo log is
// rolled back, and the host re-executes the failed region.
package sim

import (
	"fmt"

	"needle/internal/cgra"
	"needle/internal/energy"
	"needle/internal/frame"
	"needle/internal/ir"
	"needle/internal/mem"
	"needle/internal/obs"
	"needle/internal/ooo"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/spec"
)

// Observability counters (no-ops until obs.Enable): baseline captures and
// the modeled L1 behaviour they observed.
var (
	obsCaptures   = obs.GetCounter("sim.captures")
	obsL1Hits     = obs.GetCounter("sim.cache.l1.hits")
	obsL1Misses   = obs.GetCounter("sim.cache.l1.misses")
	obsHostCycles = obs.GetCounter("sim.host.cycles")
)

// Config gathers the hardware parameters.
type Config struct {
	OOO      ooo.Config
	Mem      mem.Config
	CGRA     cgra.Config
	CPU      energy.CPU
	Frame    frame.Options
	HistBits uint
	MaxSteps int64
}

// DefaultConfig returns the Table V system.
func DefaultConfig() Config {
	return Config{
		OOO:      ooo.DefaultConfig(),
		Mem:      mem.Config{},
		CGRA:     cgra.DefaultConfig(),
		CPU:      energy.DefaultCPU(),
		HistBits: 12,
	}
}

// Occurrence is one executed Ball-Larus path instance with its host cost
// and the branch history observed before it began. The path it executed is
// the matching entry of the profile's path trace.
type Occurrence struct {
	Hist   uint64
	Cycles int64
}

// Trace is the captured baseline execution.
type Trace struct {
	Profile *profile.FunctionProfile
	// Occ holds one entry per path completion, in execution order: Occ[i]
	// is an occurrence of path Profile.Trace[i].
	Occ []Occurrence

	// AM is the analysis manager the capture used; target construction and
	// evaluation against this trace reuse it, so dominators/liveness for the
	// traced function are computed once per trace.
	AM *pm.Manager

	BaselineCycles   int64
	BaselineEnergyPJ float64
	Mix              ooo.OpMix
	CacheStats       mem.Stats
}

// Capture runs the workload function once on the modeled host, collecting
// the path profile, per-occurrence cycle attribution, branch history
// snapshots, and the host energy baseline. Analyses are served by am (nil
// for a one-shot manager); the trace keeps the manager for downstream
// target evaluation. The capture's spans nest under am.Span().
func Capture(am *pm.Manager, f *ir.Function, args []uint64, memory []uint64, cfg Config) (*Trace, error) {
	am = pm.Ensure(am)
	sp := am.Span().Child("capture")
	defer sp.End()
	obsCaptures.Add(1)
	csp := sp.Child("capture: collector")
	collector, err := profile.NewCollector(am, f, true)
	csp.End()
	if err != nil {
		return nil, err
	}
	cache := mem.New(cfg.Mem)
	model := ooo.New(cfg.OOO, f.NumRegs(), cache)
	hist := &spec.HistoryTracker{}

	tr := &Trace{AM: am}
	var lastCycles int64
	var histBefore uint64
	// The collector fires OnPath at every path completion; snapshot
	// the host cycle counter and history register around each occurrence.
	// Only the primitive snapshots accumulate during the run — the
	// Occurrence structs are assembled afterwards in one exact allocation
	// from the collector's path-completion count (the recorded path trace).
	occCycles := make([]int64, 0, 1024)
	occHists := make([]uint64, 0, 1024)
	collector.SetOnPath(func(id int64) {
		now := model.Cycles()
		occCycles = append(occCycles, now-lastCycles)
		occHists = append(occHists, histBefore)
		lastCycles = now
		histBefore = hist.H
	})

	// The compiled plan feeds the timing model one block-batched FeedBlock
	// per executed block over its precompiled timing packets, and updates the
	// history register directly in its loop.
	xsp := sp.Child("capture: execute")
	if _, err := collector.RunTimed(args, memory, model, &hist.H, cfg.MaxSteps); err != nil {
		xsp.End()
		return nil, err
	}
	xsp.End()
	fsp := sp.Child("capture: finish")
	fp, err := collector.Finish()
	fsp.End()
	if err != nil {
		return nil, err
	}
	// One exact allocation: the recorded path trace enumerates completed
	// occurrences in order, so its length is the occurrence count.
	if len(fp.Trace) != len(occCycles) {
		return nil, fmt.Errorf("sim: capture recorded %d occurrences but traced %d paths", len(occCycles), len(fp.Trace))
	}
	tr.Occ = make([]Occurrence, len(fp.Trace))
	for i := range tr.Occ {
		tr.Occ[i] = Occurrence{Hist: occHists[i], Cycles: occCycles[i]}
	}
	tr.Profile = fp
	tr.BaselineCycles = model.Cycles()
	tr.Mix = model.Mix
	tr.CacheStats = cache.Stats
	tr.BaselineEnergyPJ = energy.HostEnergyPJ(cfg.CPU, model.Mix, cache.Stats)
	obsL1Hits.Add(cache.Stats.L1Hits)
	obsL1Misses.Add(cache.Stats.L1Misses)
	obsHostCycles.Add(tr.BaselineCycles)
	return tr, nil
}

// Target is an offload candidate: a framed region scheduled on the CGRA,
// plus the acceptance test deciding whether an executed path completes on
// the accelerator.
type Target struct {
	Region *region.Region
	Frame  *frame.Frame
	Sched  *cgra.Sched

	// accepts and isOpp are indexed by a path's rank in the profile's Paths
	// (the index a Replay codes occurrences by): whether an occurrence of
	// the path completes on the accelerator, and whether it starts at the
	// region entry, i.e. is an offload opportunity.
	accepts []bool
	isOpp   []bool
	// fullExec marks non-speculative predicated targets: every frame op
	// executes (and pays energy) on every invocation, with no gating.
	fullExec bool
}

// NewPathTarget builds the offload target for a single BL-Path region.
func NewPathTarget(am *pm.Manager, fp *profile.FunctionProfile, p *profile.Path, cfg Config) (*Target, error) {
	r := region.FromPath(fp.F, p)
	fr, err := frame.Build(am, r, cfg.Frame)
	if err != nil {
		return nil, err
	}
	accepts := make([]bool, len(fp.Paths))
	for i, q := range fp.Paths {
		accepts[i] = q.ID == p.ID
	}
	return newTarget(fp, r, fr, accepts, cfg), nil
}

// NewBraidTarget builds the offload target for a braid. Any executed path
// that starts at the braid entry, ends at the braid exit, and stays within
// the braid's blocks completes on the accelerator — including block
// combinations never seen during profiling, the coverage bonus of
// Section IV-B.
func NewBraidTarget(am *pm.Manager, fp *profile.FunctionProfile, br *region.Braid, cfg Config) (*Target, error) {
	fr, err := frame.Build(am, &br.Region, cfg.Frame)
	if err != nil {
		return nil, err
	}
	return braidTarget(fp, br, fr, cfg), nil
}

// braidTarget is NewBraidTarget with the braid's frame already built.
func braidTarget(fp *profile.FunctionProfile, br *region.Braid, fr *frame.Frame, cfg Config) *Target {
	in := blockSet(fp.F, br.Blocks)
	accepts := make([]bool, len(fp.Paths))
	for i, p := range fp.Paths {
		n := len(p.Blocks)
		accepts[i] = n > 0 && p.Blocks[0] == br.Entry && p.Blocks[n-1] == br.Exit && within(in, p.Blocks)
	}
	return newTarget(fp, &br.Region, fr, accepts, cfg)
}

// blockSet marks blocks, all of f, in a table indexed by Block.Index, so
// testing every executed path for containment costs one load per block.
func blockSet(f *ir.Function, blocks []*ir.Block) []bool {
	in := make([]bool, len(f.Blocks))
	for _, b := range blocks {
		in[b.Index] = true
	}
	return in
}

// within reports whether every block of a path is marked in set.
func within(set []bool, blocks []*ir.Block) bool {
	for _, b := range blocks {
		if !set[b.Index] {
			return false
		}
	}
	return true
}

func newTarget(fp *profile.FunctionProfile, r *region.Region, fr *frame.Frame, accepts []bool, cfg Config) *Target {
	isOpp := make([]bool, len(fp.Paths))
	for i, p := range fp.Paths {
		isOpp[i] = len(p.Blocks) > 0 && p.Blocks[0] == r.Entry
	}
	return &Target{
		Region:  r,
		Frame:   fr,
		Sched:   cgra.Schedule(fr, cfg.CGRA),
		accepts: accepts,
		isOpp:   isOpp,
	}
}

// Replay is a captured trace prepared for target evaluation: each
// occurrence coded by its path's rank in Profile.Paths, the index targets
// are built on, so replaying a target costs array loads only, however large
// the function's Ball-Larus path-ID space is. Build one per evaluation round
// and share it across every target and predictor replayed against the
// trace. It is deliberately not kept on the Trace: traces are shared,
// long-lived artifacts, and the rank column is as long as the trace.
type Replay struct {
	Trace *Trace
	rank  []int32 // rank[i]: rank of the path occurrence i executed
	ops   []int64 // ops[r]: dynamic op count of the rank-r path
}

// NewReplay codes tr's occurrences by path rank in one pass over the
// profile's path trace.
func NewReplay(tr *Trace) Replay {
	paths := tr.Profile.Paths
	rankOf := make(map[int64]int32, len(paths))
	ops := make([]int64, len(paths))
	for r, p := range paths {
		rankOf[p.ID] = int32(r)
		ops[r] = p.Ops
	}
	rank := make([]int32, len(tr.Profile.Trace))
	// Loops complete the same path back to back, so remembering the last
	// lookup skips most map probes.
	last, lastRank := int64(-1), int32(0)
	for i, id := range tr.Profile.Trace {
		if id != last {
			last, lastRank = id, rankOf[id]
		}
		rank[i] = lastRank
	}
	return Replay{Trace: tr, rank: rank, ops: ops}
}

// Result is the outcome of evaluating one target under one predictor.
type Result struct {
	Predictor string

	BaselineCycles int64
	OffloadCycles  int64
	// Improvement is the fractional cycle reduction (Figure 9's metric;
	// negative values are degradations).
	Improvement float64

	Opportunities int64 // region entries seen
	Invocations   int64 // times the predictor offloaded
	Successes     int64 // invocations that committed
	// Precision is Successes/Invocations (the predictor precision shown on
	// Figure 9's upper axis).
	Precision float64

	BaselineEnergyPJ float64
	OffloadEnergyPJ  float64
	// EnergyReduction is the net fractional energy saving (Figure 10).
	EnergyReduction float64

	// Coverage is the fraction of baseline dynamic instructions the
	// accelerated occurrences account for.
	Coverage float64
}

// Evaluate replays the captured trace, offloading accepted occurrences of
// the target under the given predictor. The target must have been built
// from the replayed trace's profile. Passing a *spec.Oracle predictor
// evaluates the oracle bound (invoke exactly when the invocation would
// succeed).
//
// Consecutive successful invocations pipeline on the resident fabric at the
// schedule's initiation interval; a failure, a declined invocation, or an
// occurrence of a different region drains the pipeline, and the next
// invocation pays the full frame latency again. Failures additionally pay
// the rollback walk and the host's re-execution of the region, per the
// paper's conservative Section VI-A model.
func Evaluate(rp Replay, tgt *Target, pred spec.Predictor, cfg Config) Result {
	tr := rp.Trace
	res := Result{
		Predictor:        pred.Name(),
		BaselineCycles:   tr.BaselineCycles,
		BaselineEnergyPJ: tr.BaselineEnergyPJ,
	}
	if tr.BaselineCycles == 0 {
		return res
	}
	perOpPJ := energy.PerOpPJ(cfg.CPU, tr.Mix, tr.CacheStats)

	oracle, isOracle := pred.(*spec.Oracle)
	// The replay loop calls the predictor twice per opportunity; the common
	// predictors are resolved to concrete types here so those calls inline
	// instead of dispatching through the interface per occurrence.
	histPred, _ := pred.(*spec.History)
	var cycles int64
	energyPJ := tr.BaselineEnergyPJ // adjusted incrementally
	var acceleratedWeight int64
	reconfigured := false
	inRun := false

	rank := rp.rank[:len(tr.Occ)]
	for i, occ := range tr.Occ {
		r := rank[i]
		if !tgt.isOpp[r] {
			cycles += occ.Cycles
			inRun = false
			continue
		}
		res.Opportunities++
		success := tgt.accepts[r]
		if isOracle {
			oracle.SetNext(success)
		}
		var invoke bool
		switch {
		case histPred != nil:
			invoke = histPred.Predict(occ.Hist)
		case isOracle:
			invoke = success
		default:
			invoke = pred.Predict(occ.Hist)
		}
		if invoke {
			res.Invocations++
			if !reconfigured {
				cycles += cfg.CGRA.ReconfigCycles
				reconfigured = true
			}
			occOps := rp.ops[r]
			if success {
				res.Successes++
				if inRun {
					cycles += tgt.Sched.II
				} else {
					cycles += tgt.Sched.InvokeCycles()
					energyPJ += tgt.Sched.TransferPJ
					inRun = true
				}
				// The host stops paying for these ops; the accelerator pays
				// its own, with predicated-off frame ops gated (speculative
				// frames) or fully powered (non-speculative hyperblocks).
				execOps := occOps
				if tgt.fullExec {
					execOps = int64(len(tgt.Frame.Ops))
				}
				energyPJ -= float64(occOps) * perOpPJ
				energyPJ += tgt.Sched.InvokeEnergyPJ(execOps)
				acceleratedWeight += occOps
			} else {
				// Wasted accelerator work, rollback, then host re-execution.
				cycles += tgt.Sched.FailCycles() + occ.Cycles
				energyPJ += tgt.Sched.FailEnergyPJ() + tgt.Sched.TransferPJ
				inRun = false
			}
		} else {
			cycles += occ.Cycles
			inRun = false
		}
		switch {
		case histPred != nil:
			histPred.Update(occ.Hist, success)
		case isOracle: // no-op update
		default:
			pred.Update(occ.Hist, success)
		}
	}

	res.OffloadCycles = cycles
	res.Improvement = float64(tr.BaselineCycles-cycles) / float64(tr.BaselineCycles)
	res.OffloadEnergyPJ = energyPJ
	res.EnergyReduction = energy.Reduction(tr.BaselineEnergyPJ, energyPJ)
	if res.Invocations > 0 {
		res.Precision = float64(res.Successes) / float64(res.Invocations)
	}
	if tr.Profile.TotalWeight > 0 {
		res.Coverage = float64(acceleratedWeight) / float64(tr.Profile.TotalWeight)
	}
	return res
}

// Candidate pairs an offload decision with its evaluation.
type Candidate struct {
	Result Result
	Braid  *region.Braid // nil for the no-offload baseline
	Policy string        // "history", "always", or "none"
}

// SelectBraid reproduces Needle's filter-and-rank stage for braids: it
// evaluates the top-k of the ranked braids (region.BuildBraids over the
// replayed trace's profile) under both invocation policies and returns the
// candidate with the fewest cycles, falling back to no offload when nothing
// profits (Section IV-B: "NEEDLE provides a methodical framework to reason
// about this tradeoff").
//
// hot is the frame of braids[0], built with cfg.Frame over the trace's
// analysis manager (the pipeline's Frame stage builds exactly that), so the
// top braid is not framed twice. A nil hot means braids[0] could not be
// framed, and it is skipped as any unframeable candidate is.
func SelectBraid(rp Replay, braids []*region.Braid, hot *frame.Frame, cfg Config, topK int) (Candidate, error) {
	if len(braids) == 0 {
		return Candidate{}, fmt.Errorf("sim: no braids")
	}
	if topK <= 0 {
		topK = 3
	}
	tr := rp.Trace
	best := Candidate{
		Result: Result{
			Predictor:        "none",
			BaselineCycles:   tr.BaselineCycles,
			OffloadCycles:    tr.BaselineCycles,
			BaselineEnergyPJ: tr.BaselineEnergyPJ,
			OffloadEnergyPJ:  tr.BaselineEnergyPJ,
		},
		Policy: "none",
	}
	for i := 0; i < topK && i < len(braids); i++ {
		br := braids[i]
		fr := hot
		if i > 0 {
			var err error
			if fr, err = frame.Build(tr.AM, &br.Region, cfg.Frame); err != nil {
				continue // e.g. unframeable region; skip candidate
			}
		}
		if fr == nil {
			continue // braids[0] could not be framed
		}
		tgt := braidTarget(tr.Profile, br, fr, cfg)
		for _, pred := range []spec.Predictor{spec.NewHistory(cfg.HistBits), spec.Always{}} {
			res := Evaluate(rp, tgt, pred, cfg)
			// A candidate must not trade energy for speed: offload exists to
			// save energy (Section I), so the filter requires both axes to
			// be no worse than the host baseline.
			if res.OffloadEnergyPJ > res.BaselineEnergyPJ {
				continue
			}
			if res.OffloadCycles < best.Result.OffloadCycles {
				best = Candidate{Result: res, Braid: br, Policy: pred.Name()}
			}
		}
	}
	return best, nil
}

// SelectPath is the path-side filter: it evaluates the top-k paths under the
// history predictor (plus the oracle bound for reporting) and returns the
// best history-policy candidate, falling back to no offload.
func SelectPath(rp Replay, cfg Config, topK int) (history, oracle Result, err error) {
	tr := rp.Trace
	if len(tr.Profile.Paths) == 0 {
		return history, oracle, fmt.Errorf("sim: no executed paths")
	}
	if topK <= 0 {
		topK = 3
	}
	hot := tr.Profile.HottestPath()
	tgt, err := NewPathTarget(tr.AM, tr.Profile, hot, cfg)
	if err != nil {
		return history, oracle, err
	}
	oracle = Evaluate(rp, tgt, &spec.Oracle{}, cfg)
	history = Evaluate(rp, tgt, spec.NewHistory(cfg.HistBits), cfg)
	for i := 1; i < topK && i < len(tr.Profile.Paths); i++ {
		t2, err := NewPathTarget(tr.AM, tr.Profile, tr.Profile.Paths[i], cfg)
		if err != nil {
			continue
		}
		if r := Evaluate(rp, t2, spec.NewHistory(cfg.HistBits), cfg); r.OffloadCycles < history.OffloadCycles {
			history = r
		}
		if r := Evaluate(rp, t2, &spec.Oracle{}, cfg); r.OffloadCycles < oracle.OffloadCycles {
			oracle = r
		}
	}
	return history, oracle, nil
}

// NewHyperblockTarget builds the non-speculative predicated baseline of
// Figure 2's middle column: the hyperblock executes all its (predicated)
// operations on every invocation, cannot fail or roll back, and is invoked
// only for flows it fully contains — everything else stays on the host.
func NewHyperblockTarget(am *pm.Manager, fp *profile.FunctionProfile, hb *region.Hyperblock, cfg Config) (*Target, error) {
	in := blockSet(fp.F, hb.Blocks)
	accepts := make([]bool, len(fp.Paths))
	for i, p := range fp.Paths {
		accepts[i] = len(p.Blocks) > 0 && p.Blocks[0] == hb.Entry && within(in, p.Blocks)
	}
	fr, err := frame.Build(am, &hb.Region, cfg.Frame)
	if err != nil {
		return nil, err
	}
	return &Target{
		Region:  &hb.Region,
		Frame:   fr,
		Sched:   cgra.Schedule(fr, cfg.CGRA),
		accepts: accepts,
		// Only covered flows are offload opportunities: uncovered paths run
		// on the host with no penalty (non-speculative regions exit cleanly).
		isOpp:    accepts,
		fullExec: true,
	}, nil
}

// EvaluateHyperblock evaluates the non-speculative hyperblock baseline
// seeded at the hottest path's entry, under always-invoke (it cannot fail).
func EvaluateHyperblock(rp Replay, cfg Config, coldFraction float64) (Result, error) {
	tr := rp.Trace
	hot := tr.Profile.HottestPath()
	if hot == nil {
		return Result{}, fmt.Errorf("sim: no executed paths")
	}
	hb := region.BuildTunedHyperblock(tr.AM, tr.Profile, hot.Blocks[0], coldFraction, 0.05)
	tgt, err := NewHyperblockTarget(tr.AM, tr.Profile, hb, cfg)
	if err != nil {
		return Result{}, err
	}
	return Evaluate(rp, tgt, spec.Always{}, cfg), nil
}
