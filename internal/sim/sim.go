// Package sim is the whole-system simulator of Section VI: it runs a
// workload once on the modeled host to capture a cycle-annotated path
// trace, then evaluates offload targets (BL-Path or Braid
// frames on the CGRA) against that trace under different invocation
// predictors. The evaluation follows the paper's conservative model: guard
// failures are detected only at the end of an invocation, the undo log is
// rolled back, and the host re-executes the failed region.
package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"needle/internal/cgra"
	"needle/internal/energy"
	"needle/internal/frame"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/mem"
	"needle/internal/obs"
	"needle/internal/ooo"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/spec"
	"needle/internal/wire"
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
	// MaxSteps bounds the interpreter steps of a capture (<= 0: the
	// interpreter's default), and MaxOccurrences the path occurrences it
	// traces (<= 0: unbounded); a capture past either fails with
	// interp.ErrStepLimit or interp.ErrOccurrenceLimit.
	MaxSteps       int64
	MaxOccurrences int64
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

// ErrConfig marks a hardware config Check rejects.
var ErrConfig = errors.New("invalid hardware config")

// Bounds Check enforces. Each is far above the Table V system and keeps a
// model's tables small: the CGRA placement caches (Rows·Cols)² slot
// orders, the CGRA schedule reserves one entry per cycle of a frame, and
// the host core and cache allocate per unit, entry and line.
const (
	maxFabricSlots = 1024    // CGRA Rows·Cols
	maxLatency     = 1024    // CGRA memory latency, cycles
	maxCoreUnits   = 64      // host Width, ALUs and FPUs
	maxROB         = 4096    // host reorder-buffer entries
	maxL1Words     = 1 << 20 // host L1 capacity, words
	maxL1Ways      = 64
	maxUndoOps     = 64 // frame undo-log ops per store
)

// Check rejects a config the models cannot run: one that would hang,
// panic or exhaust memory. A zero CGRA (Rows 0) or host core (Width 0)
// selects the Table V default and passes, as do non-positive cache fields,
// which the cache model defaults one by one. Every pipeline run checks its
// config, and the service rejects a failing one before queueing it.
func (c Config) Check() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", ErrConfig, fmt.Sprintf(format, args...))
	}
	if g := c.CGRA; g.Rows != 0 {
		switch {
		case g.Rows < 1 || g.Cols < 1 || g.Rows > maxFabricSlots || g.Cols > maxFabricSlots || g.Rows*g.Cols > maxFabricSlots:
			return bad("CGRA fabric %dx%d: Rows and Cols must be positive with Rows*Cols <= %d", g.Rows, g.Cols, maxFabricSlots)
		case g.MemPorts < 1 || g.MemPorts > maxFabricSlots:
			return bad("CGRA.MemPorts %d: must be in [1, %d]", g.MemPorts, maxFabricSlots)
		case g.MemLatency < 0 || g.MemLatency > maxLatency:
			return bad("CGRA.MemLatency %d: must be in [0, %d]", g.MemLatency, maxLatency)
		}
	}
	if o := c.OOO; o.Width != 0 {
		switch {
		case o.Width < 1 || o.Width > maxCoreUnits:
			return bad("OOO.Width %d: must be in [1, %d]", o.Width, maxCoreUnits)
		case o.ROB < 1 || o.ROB > maxROB:
			return bad("OOO.ROB %d: must be in [1, %d]", o.ROB, maxROB)
		case o.ALUs < 1 || o.ALUs > maxCoreUnits || o.FPUs < 1 || o.FPUs > maxCoreUnits:
			return bad("OOO.ALUs %d, OOO.FPUs %d: each must be in [1, %d]", o.ALUs, o.FPUs, maxCoreUnits)
		}
	}
	switch m := c.Mem; {
	case m.L1Words > maxL1Words:
		return bad("Mem.L1Words %d: must be at most %d", m.L1Words, maxL1Words)
	case m.L1Ways > maxL1Ways:
		return bad("Mem.L1Ways %d: must be at most %d", m.L1Ways, maxL1Ways)
	case m.L1LineWords > maxL1Words:
		return bad("Mem.L1LineWords %d: must be at most %d", m.L1LineWords, maxL1Words)
	}
	if u := c.Frame.UndoOpsPerStore; u > maxUndoOps {
		return bad("Frame.UndoOpsPerStore %d: must be at most %d", u, maxUndoOps)
	}
	return nil
}

// Trace is the captured baseline execution.
type Trace struct {
	Profile *profile.FunctionProfile
	// Cycles packs each path completion's host cycles as zig-zag varints
	// (docs/PIPELINE.md), in execution order: the occurrences of each run of
	// Profile.Runs in turn. They stay packed: the replay reads an
	// occurrence's cycles only where a history lane steps it, and settles
	// the rest of a run from RunCycles. A decoded trace's bytes alias the
	// payload it was read from, so neither may be written.
	Cycles []byte
	// RunCycles holds, for each run of Profile.Runs, the host cycles of its
	// occurrences summed.
	RunCycles []int64
	// Occ has one zero-width entry per occurrence, so it allocates nothing
	// and its length is the occurrence count. It is a shim for the frozen
	// needlebench module's per-layer probe, which reads len(Occ); nothing
	// in this module reads it, and ROADMAP item 3 deletes it.
	Occ []struct{}
	// offs holds, for each run, the byte of Cycles where its first varint
	// starts (see indexRuns).
	offs []uint32
	// hist is the history each path shifts in, by rank (see rankHist).
	hist []rankHist

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
// the path profile, per-occurrence cycle attribution and the host energy
// baseline. Analyses are served by am (nil
// for a one-shot manager); the trace keeps the manager for downstream
// target evaluation. The capture's spans nest under am.Span().
func Capture(am *pm.Manager, f *ir.Function, args []uint64, memory []uint64, cfg Config) (*Trace, error) {
	cache := l1For(cfg.Mem)
	defer l1s.Put(cache)
	return captureOn(cache, am, f, args, memory, cfg)
}

// captureOn is Capture on the modeled host whose L1 is cache, which must be
// new or reset.
func captureOn(cache *mem.Cache, am *pm.Manager, f *ir.Function, args []uint64, memory []uint64, cfg Config) (*Trace, error) {
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
	host := &hostFeed{
		Model: ooo.New(cfg.OOO, f.NumRegs(), cache),
		// Cycle deltas take one or two bytes each on the workloads.
		cycles: make([]byte, 0, 2048),
	}

	xsp := sp.Child("capture: execute")
	if _, err := collector.RunTimed(args, memory, interp.PlanOpts{
		MaxSteps: cfg.MaxSteps, MaxOccurrences: cfg.MaxOccurrences, Timing: host,
	}); err != nil {
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
	// The recorded path trace enumerates completed occurrences in order, so
	// it must hold exactly one varint per traced path.
	sums, offs, err := indexRuns(fp.Runs, host.cycles)
	if err != nil {
		return nil, fmt.Errorf("sim: capture: %w", err)
	}
	tr := &Trace{
		Profile:          fp,
		Cycles:           host.cycles,
		RunCycles:        sums,
		Occ:              make([]struct{}, profile.Occurrences(fp.Runs)),
		offs:             offs,
		hist:             rankHists(fp),
		AM:               am,
		BaselineCycles:   host.Cycles(),
		BaselineEnergyPJ: energy.HostEnergyPJ(cfg.CPU, host.Mix, cache.Stats),
		Mix:              host.Mix,
		CacheStats:       cache.Stats,
	}
	obsL1Hits.Add(cache.Stats.L1Hits)
	obsL1Misses.Add(cache.Stats.L1Misses)
	obsHostCycles.Add(tr.BaselineCycles)
	return tr, nil
}

// l1s holds the L1 models of finished captures for later ones: a new
// model's line table was a large share of what a small capture allocated.
// Nothing a capture returns refers to its model.
var l1s sync.Pool

// l1For returns a reset L1 model of cfg, reused when the pool's first
// model has the same configuration.
func l1For(cfg mem.Config) *mem.Cache {
	if c, _ := l1s.Get().(*mem.Cache); c != nil && c.Config() == cfg.WithDefaults() {
		c.Reset()
		return c
	}
	return mem.New(cfg)
}

// hostFeed is Capture's interp.Timing: the host timing model, which takes
// the block feed, plus the host cycles of every path occurrence, packed as
// the trace keeps them.
type hostFeed struct {
	*ooo.Model
	lastCycles int64 // host cycles when the current path began
	cycles     []byte
}

// EndPath closes one occurrence.
func (h *hostFeed) EndPath(int64) {
	now := h.Cycles()
	h.cycles = wire.AppendVarint(h.cycles, now-h.lastCycles)
	h.lastCycles = now
}

// Target is an offload candidate: a framed region scheduled on the CGRA,
// plus the acceptance test deciding whether an executed path completes on
// the accelerator.
type Target struct {
	Region *region.Region
	Frame  *frame.Frame
	Sched  *cgra.Sched

	// isOpp is indexed by a path's rank in the profile's Paths: whether an
	// occurrence of the path starts at the region entry, i.e. is an offload
	// opportunity. Targets built together share one table per entry.
	isOpp []bool
	// accepts, indexed the same way, marks the paths whose occurrences
	// complete on the accelerator. A path target needs no table: it
	// accepts the one path of rank pathRank, which is -1 on other targets.
	accepts  []bool
	pathRank int32
	// fullExec marks non-speculative predicated targets: every frame op
	// executes (and pays energy) on every invocation, with no gating.
	fullExec bool
}

// opportunities memoizes, per region entry, which ranked paths of fp start
// there.
type opportunities struct {
	fp      *profile.FunctionProfile
	byEntry [][]bool // by the entry's Block.Index; nil until asked
}

func newOpportunities(fp *profile.FunctionProfile) *opportunities {
	return &opportunities{fp: fp, byEntry: make([][]bool, len(fp.F.Blocks))}
}

func (o *opportunities) at(entry *ir.Block) []bool {
	if opp := o.byEntry[entry.Index]; opp != nil {
		return opp
	}
	opp := make([]bool, len(o.fp.Paths))
	for i, p := range o.fp.Paths {
		opp[i] = len(p.Blocks) > 0 && int(p.Blocks[0]) == entry.Index
	}
	o.byEntry[entry.Index] = opp
	return opp
}

// NewPathTarget builds the offload target for a single BL-Path region.
func NewPathTarget(am *pm.Manager, fp *profile.FunctionProfile, p *profile.Path, cfg Config) (*Target, error) {
	return pathTarget(am, newOpportunities(fp), p, cfg, nil)
}

// pathTarget is NewPathTarget over shared opportunity tables, framing
// through sc (nil for a fresh scratch).
func pathTarget(am *pm.Manager, opps *opportunities, p *profile.Path, cfg Config, sc *frame.Scratch) (*Target, error) {
	fp := opps.fp
	r := region.FromPath(fp.F, p)
	fr, err := frame.Build(am, r, cfg.Frame, sc)
	if err != nil {
		return nil, err
	}
	return newTarget(r, fr, opps.at(r.Entry), nil, int32(fp.Rank(p)), cfg), nil
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
	return braidTarget(newOpportunities(fp), br, fr, cfg), nil
}

// braidTarget is NewBraidTarget with the braid's frame already built.
func braidTarget(opps *opportunities, br *region.Braid, fr *frame.Frame, cfg Config) *Target {
	fp := opps.fp
	accepts := make([]bool, len(fp.Paths))
	entry, exit := int32(br.Entry.Index), int32(br.Exit.Index)
	for i, p := range fp.Paths {
		n := len(p.Blocks)
		accepts[i] = n > 0 && p.Blocks[0] == entry && p.Blocks[n-1] == exit && br.ContainsAll(p.Blocks)
	}
	return newTarget(&br.Region, fr, opps.at(br.Entry), accepts, -1, cfg)
}

func newTarget(r *region.Region, fr *frame.Frame, isOpp, accepts []bool, pathRank int32, cfg Config) *Target {
	return &Target{
		Region:   r,
		Frame:    fr,
		Sched:    cgra.Schedule(fr, cfg.CGRA),
		isOpp:    isOpp,
		accepts:  accepts,
		pathRank: pathRank,
	}
}

// hyperblockTarget builds the non-speculative predicated baseline of
// Figure 2's middle column, framing through sc: the hyperblock executes
// all its (predicated) operations on every invocation, cannot fail or roll
// back, and is invoked only for flows it fully contains — everything else
// stays on the host.
func hyperblockTarget(am *pm.Manager, fp *profile.FunctionProfile, hb *region.Hyperblock, cfg Config, sc *frame.Scratch) (*Target, error) {
	accepts := make([]bool, len(fp.Paths))
	entry := int32(hb.Entry.Index)
	for i, p := range fp.Paths {
		accepts[i] = len(p.Blocks) > 0 && p.Blocks[0] == entry && hb.ContainsAll(p.Blocks)
	}
	fr, err := frame.Build(am, &hb.Region, cfg.Frame, sc)
	if err != nil {
		return nil, err
	}
	// Only covered flows are offload opportunities: uncovered paths run on
	// the host with no penalty (non-speculative regions exit cleanly).
	tgt := newTarget(&hb.Region, fr, accepts, accepts, -1, cfg)
	tgt.fullExec = true
	return tgt, nil
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

// Lane is one (target, predictor) pair to replay. The target must have been
// built from the replayed trace's profile, and the predictor must be a
// fresh one of its own: a lane's predictor learns from its lane only. The
// predictor is a *spec.History, a *spec.Oracle or a spec.Always; passing a
// *spec.Oracle evaluates the oracle bound (invoke exactly when the
// invocation would succeed).
type Lane struct {
	Target *Target
	Pred   spec.Predictor
}

// Evaluate replays the captured trace once for every lane, offloading
// accepted occurrences of each lane's target under its predictor, and
// returns one result per lane. Lanes share nothing but the trace and
// per-rank tables, so a lane's result does not depend on the other lanes.
// It panics on a lane whose predictor is of another type than the three
// Lane names.
//
// Consecutive successful invocations pipeline on the resident fabric at the
// schedule's initiation interval; a failure, a declined invocation, or an
// occurrence of a different region drains the pipeline, and the next
// invocation pays the full frame latency again. Failures additionally pay
// the rollback walk and the host's re-execution of the region, per the
// paper's conservative Section VI-A model.
func Evaluate(tr *Trace, lanes []Lane, cfg Config) []Result {
	res := make([]Result, len(lanes))
	for i, l := range lanes {
		res[i] = Result{
			Predictor:        l.Pred.Name(),
			BaselineCycles:   tr.BaselineCycles,
			BaselineEnergyPJ: tr.BaselineEnergyPJ,
		}
	}
	if tr.BaselineCycles == 0 {
		return res
	}
	costs, walk := replayTables(tr, lanes, res, cfg)
	replay(walk, tr, costs)
	for i := range walk {
		r := &res[i]
		w := &walk[i]
		r.OffloadCycles = w.cycles
		r.Improvement = float64(tr.BaselineCycles-w.cycles) / float64(tr.BaselineCycles)
		r.OffloadEnergyPJ = w.energyPJ
		r.EnergyReduction = energy.Reduction(tr.BaselineEnergyPJ, w.energyPJ)
		if r.Invocations > 0 {
			r.Precision = float64(r.Successes) / float64(r.Invocations)
		}
		if tr.Profile.TotalWeight > 0 {
			r.Coverage = float64(w.weight) / float64(tr.Profile.TotalWeight)
		}
	}
	return res
}

// tile is how many runs every lane of a replay advances over before the
// next tile: the tile's runs, their packed cycles and their branch
// histories stay in cache across the lanes.
const tile = 512

// replay advances every lane of walk over the whole trace, a tile of runs
// at a time. What the tile costs the host is summed once for all lanes,
// and so are its runs' branch histories (see fillHists).
func replay(walk []laneWalk, tr *Trace, costs []rankCost) {
	var hists [tile]runHist
	runs, sums := tr.Profile.Runs, tr.RunCycles
	var h, snap uint64 // the branch history as the tile begins
	for lo := 0; lo < len(runs); lo += tile {
		hi := min(lo+tile, len(runs))
		var host int64
		for _, c := range sums[lo:hi] {
			host += c
		}
		t := span{runs: runs[lo:hi], sums: sums[lo:hi], cycles: tr.Cycles, offs: tr.offs[lo:hi], hists: hists[:hi-lo]}
		h, snap = fillHists(tr.hist, runs, lo, h, snap, t.hists)
		for i := range walk {
			if w := &walk[i]; w.kind == predHistory {
				w.walkHistory(&t, costs, host)
			} else {
				w.walkFixed(&t, costs, host)
			}
		}
	}
}

// span is a stretch of the trace: whole runs, each run's host cycles, the
// trace's packed cycles with the byte each run's first varint starts at,
// and each run's branch histories.
type span struct {
	runs   []profile.Run
	sums   []int64
	cycles []byte
	offs   []uint32
	hists  []runHist
}

// rankCost is what one occurrence of a path costs the host, by rank.
type rankCost struct {
	ops    int64   // dynamic ops
	hostPJ float64 // their host energy: float64(ops) * energy.PerOpPJ
}

// A path's class on one target, by rank.
const (
	classHost    uint8 = iota // not an opportunity: the path stays on the host
	classFail                 // an opportunity the target does not complete
	classSuccess              // an opportunity the target completes
)

// replayTables builds what one Evaluate reads per run, in two allocations,
// never stored on the shared trace or targets: one cost table by rank for
// all lanes, and one class table by rank per distinct target (lanes of one
// target share it). It returns the cost table and each lane's walk state.
func replayTables(tr *Trace, lanes []Lane, res []Result, cfg Config) ([]rankCost, []laneWalk) {
	paths := tr.Profile.Paths
	perOpPJ := energy.PerOpPJ(cfg.CPU, tr.Mix, tr.CacheStats)
	costs := make([]rankCost, len(paths))
	for r, p := range paths {
		costs[r] = rankCost{ops: p.Ops, hostPJ: float64(p.Ops) * perOpPJ}
	}
	// first returns the first lane with lane i's target.
	first := func(i int) int {
		return slices.IndexFunc(lanes, func(m Lane) bool { return m.Target == lanes[i].Target })
	}
	targets := 0
	for i := range lanes {
		if first(i) == i {
			targets++
		}
	}
	classes := make([]uint8, targets*len(paths))
	walk := make([]laneWalk, len(lanes))
	for i, l := range lanes {
		if o := first(i); o < i {
			walk[i] = newLaneWalk(l, walk[o].class, costs, &res[i], tr.BaselineEnergyPJ, cfg)
			continue
		}
		class := classes[:len(paths):len(paths)]
		classes = classes[len(paths):]
		t := l.Target
		for r := range class {
			if t.isOpp[r] {
				class[r] = classFail
				if int32(r) == t.pathRank || t.accepts != nil && t.accepts[r] {
					class[r] = classSuccess
				}
			}
		}
		walk[i] = newLaneWalk(l, class, costs, &res[i], tr.BaselineEnergyPJ, cfg)
	}
	return costs, walk
}

// predKind is a lane's predictor resolved to its concrete type: each kind
// has a walk of its own, which calls the predictor directly, if at all,
// instead of through the interface.
type predKind uint8

const (
	predHistory predKind = iota
	predOracle
	predAlways
)

// laneWalk is one lane's replay state.
type laneWalk struct {
	class []uint8 // the target's class of each rank
	sched *cgra.Sched
	res   *Result // counts accumulate here
	kind  predKind
	hist  *spec.History // a history lane's table
	bits  uint          // the history bits hist indexes

	// Per-invocation costs of the target's schedule. A success costs the
	// accelerator successPJ, except on a braid (perRankPJ), whose paths
	// differ in the frame ops they leave gated: there it is
	// Sched.InvokeEnergyPJ of the path's ops, priced once per run.
	reconfig, ii, invokeCycles, failCycles int64
	transferPJ, failPJ, successPJ          float64
	perRankPJ                              bool

	cycles, weight      int64
	energyPJ            float64 // adjusted incrementally from the baseline
	reconfigured, inRun bool
}

func newLaneWalk(l Lane, class []uint8, costs []rankCost, res *Result, baselinePJ float64, cfg Config) laneWalk {
	t := l.Target
	s := t.Sched
	w := laneWalk{
		class:        class,
		sched:        s,
		res:          res,
		reconfig:     cfg.CGRA.ReconfigCycles,
		ii:           s.II,
		invokeCycles: s.InvokeCycles(),
		failCycles:   s.FailCycles(),
		transferPJ:   s.TransferPJ,
		failPJ:       s.FailEnergyPJ() + s.TransferPJ,
		energyPJ:     baselinePJ,
	}
	switch {
	case t.fullExec:
		// Every frame op runs on every invocation.
		w.successPJ = s.InvokeEnergyPJ(int64(len(t.Frame.Ops)))
	case t.pathRank >= 0:
		// Only the target's own path completes.
		w.successPJ = s.InvokeEnergyPJ(costs[t.pathRank].ops)
	default:
		w.perRankPJ = true
	}
	switch p := l.Pred.(type) {
	case *spec.History:
		w.kind, w.hist, w.bits = predHistory, p, uint(bits.Len64(p.Mask()))
	case *spec.Oracle:
		w.kind = predOracle
	case spec.Always:
		w.kind = predAlways
	default:
		panic(fmt.Sprintf("sim: no replay for a predictor of type %T", l.Pred))
	}
	return w
}

// successPJAt is what the accelerator spends on one successful invocation
// of a path of ops dynamic ops.
func (w *laneWalk) successPJAt(ops int64) float64 {
	if w.perRankPJ {
		return w.sched.InvokeEnergyPJ(ops)
	}
	return w.successPJ
}

// The walks below start from what the occurrences cost the host and take
// an occurrence's host cycles back out when it completes on the
// accelerator, so an occurrence that stays on the host costs a walk
// nothing. They advance a run at a time, so one class, and settle a
// stretch's counts, weight and cycles once: integer sums are exact in any
// order. Energy is not a sum that may be reordered: every occurrence that
// fires still adjusts energyPJ in trace order with the expression it
// always had, and only its operands are priced once per run.

// walkFixed is the walk of an oracle or always-invoke lane, whose every
// decision the class fixes: the oracle invokes exactly the successes, and
// always-invoke every opportunity. A run of successes costs one invocation
// and n-1 initiation intervals, or n when it continues the previous run's
// pipeline, and gives back the run's host cycles. It reads no occurrence.
func (w *laneWalk) walkFixed(t *span, costs []rankCost, host int64) {
	invokeFails := w.kind == predAlways
	class := w.class
	cycles, weight, energyPJ, inRun := w.cycles+host, w.weight, w.energyPJ, w.inRun
	var opps, invs, succs int64
	for j, run := range t.runs {
		r := run.Rank
		n := int64(run.Len)
		switch class[r] {
		case classHost:
			inRun = false
		case classFail:
			opps += n
			inRun = false
			if invokeFails {
				// Wasted accelerator work and rollback, before each host
				// re-execution.
				invs += n
				cycles += n * w.failCycles
				for range n {
					energyPJ += w.failPJ
				}
			}
		default:
			opps += n
			invs += n
			succs += n
			cycles -= t.sums[j]
			if inRun {
				cycles += n * w.ii
			} else {
				cycles += w.invokeCycles + (n-1)*w.ii
				energyPJ += w.transferPJ
				inRun = true
			}
			// The host stops paying for these ops; the accelerator pays
			// its own, with predicated-off frame ops gated (speculative
			// frames) or fully powered (non-speculative hyperblocks).
			cost := costs[r]
			accPJ := w.successPJAt(cost.ops)
			for range n {
				energyPJ -= cost.hostPJ
				energyPJ += accPJ
			}
			weight += n * cost.ops
		}
	}
	w.settle(cycles, weight, energyPJ, inRun, opps, invs, succs)
}

// walkHistory is the walk of a history lane. Inside a run every
// opportunity has one outcome, so the table steps, predicting and training
// in one lookup, per occurrence only until the run reaches its stable
// point (see rankHist) and the one entry indexed from there on
// saturates toward the outcome, deriving each history from the one before.
// Each later occurrence would predict alike and leave the table as it is,
// so the rest of the run is settled in bulk: a failing run's rest
// declines, a succeeding run's rest invokes and gives back the run's host
// cycles less those of the stepped occurrences.
func (w *laneWalk) walkHistory(t *span, costs []rankCost, host int64) {
	class, hist := w.class, w.hist
	cycles, weight, energyPJ, inRun := w.cycles+host, w.weight, w.energyPJ, w.inRun
	var opps, invs, succs int64
	for j, run := range t.runs {
		n := int(run.Len)
		c := class[run.Rank]
		if c == classHost {
			inRun = false
			continue
		}
		opps += int64(n)
		r := &t.hists[j]
		shift, pw, step, need := uint(r.w), r.pw, uint(r.step), w.bits+uint(r.s)
		x, next := r.x0, r.x1 // occurrence i's history and i+1's
		if c == classFail {
			var fired int64
			for i := range n {
				invoke, saturated := hist.Step(x, false)
				if invoke {
					fired++
					energyPJ += w.failPJ
				}
				if saturated && uint(i)*step >= need {
					break
				}
				x, next = next, next<<shift|pw
			}
			invs += fired
			cycles += fired * w.failCycles
			inRun = false
			continue
		}
		cost := costs[run.Rank]
		accPJ := w.successPJAt(cost.ops)
		var fired, stepped int64  // stepped: host cycles of the stepped occurrences
		i, p := 0, int(t.offs[j]) // p: the byte of occurrence i's cycles
		for i < n {
			invoke, saturated := hist.Step(x, true)
			// The occurrence's varint, which indexRuns has checked: one or
			// two bytes on the workloads, decoded inline.
			u := uint64(t.cycles[p])
			if u < 0x80 {
				p++
			} else if b := uint64(t.cycles[p+1]); b < 0x80 {
				u, p = u&0x7f|b<<7, p+2
			} else {
				var m int
				u, m = binary.Uvarint(t.cycles[p:])
				p += m
			}
			oc := int64(u>>1) ^ -int64(u&1)
			i++
			stepped += oc
			if invoke {
				fired++
				cycles -= oc
				if inRun {
					cycles += w.ii
				} else {
					cycles += w.invokeCycles
					energyPJ += w.transferPJ
					inRun = true
				}
				energyPJ -= cost.hostPJ
				energyPJ += accPJ
			} else {
				inRun = false
			}
			if saturated && uint(i-1)*step >= need {
				break
			}
			x, next = next, next<<shift|pw
		}
		if m := int64(n - i); m > 0 {
			fired += m
			cycles -= t.sums[j] - stepped
			if inRun {
				cycles += m * w.ii
			} else {
				cycles += w.invokeCycles + (m-1)*w.ii
				energyPJ += w.transferPJ
				inRun = true
			}
			for range m {
				energyPJ -= cost.hostPJ
				energyPJ += accPJ
			}
		}
		invs += fired
		succs += fired
		weight += fired * cost.ops
	}
	w.settle(cycles, weight, energyPJ, inRun, opps, invs, succs)
}

// settle stores a walk's state back on the lane and adds its counts to the
// lane's result. The lane reconfigures the fabric once, before its first
// invocation.
func (w *laneWalk) settle(cycles, weight int64, energyPJ float64, inRun bool, opps, invs, succs int64) {
	if invs > 0 && !w.reconfigured {
		cycles += w.reconfig
		w.reconfigured = true
	}
	w.cycles, w.weight, w.energyPJ, w.inRun = cycles, weight, energyPJ, inRun
	w.res.Opportunities += opps
	w.res.Invocations += invs
	w.res.Successes += succs
}

// Candidate pairs an offload decision with its evaluation.
type Candidate struct {
	Result Result
	Braid  *region.Braid // nil for the no-offload baseline
	Policy string        // "history", "always", or "none"
}

// rowKind says which of the Sim backend's selections a candidate row
// competes in.
type rowKind uint8

const (
	rowPath rowKind = iota
	rowBraid
	rowHyperblock
)

// row is one lane of the candidate table.
type row struct {
	kind   rowKind
	braid  *region.Braid // braid rows
	target *Target
	pred   predKind

	result *Result // set by Replay
	// accepted says the filter let the row compete: braid rows that spend
	// more energy than the host are rejected.
	accepted bool
}

// Candidates is the candidate table of Needle's filter-and-rank stage over
// one captured trace: the top-k paths under the oracle bound and the
// invocation history table, the top-k braids under history and
// always-invoke, and the non-speculative hyperblock under always-invoke,
// one row per (target, predictor) lane, in that order. NewCandidates builds
// the targets; Replay evaluates every row in one walk of the trace; the
// selections are scans of the evaluated rows.
type Candidates struct {
	tr   *Trace
	cfg  Config
	rows []row
}

// NewCandidates frames, schedules and tabulates every candidate target
// against tr. braids are the ranked braids over the trace's profile
// (region.BuildBraids), of which the top topK compete. hot is the frame of
// braids[0], built with cfg.Frame over the trace's analysis manager (the
// pipeline's Frame stage builds exactly that), so the top braid is not
// framed twice; a nil hot means braids[0] could not be framed. The
// hyperblock is seeded at the hottest path's entry with coldFraction.
// Every frame is built through one frame.Scratch, so the per-function
// tables are sized once.
//
// A lower-ranked path or any braid that cannot be framed is skipped.
// Without an executed path, without braids, or with an unframeable hottest
// path or hyperblock there is nothing to compare against, and it fails.
func NewCandidates(tr *Trace, braids []*region.Braid, hot *frame.Frame, cfg Config, topK int, coldFraction float64) (*Candidates, error) {
	if topK <= 0 {
		topK = 3
	}
	fp := tr.Profile
	if len(fp.Paths) == 0 {
		return nil, fmt.Errorf("evaluating paths: sim: no executed paths")
	}
	nPaths, nBraids := min(topK, len(fp.Paths)), min(topK, len(braids))
	c := &Candidates{tr: tr, cfg: cfg, rows: make([]row, 0, 2*nPaths+2*nBraids+1)}
	add := func(kind rowKind, br *region.Braid, tgt *Target, preds ...predKind) {
		for _, p := range preds {
			c.rows = append(c.rows, row{kind: kind, braid: br, target: tgt, pred: p})
		}
	}

	opps := newOpportunities(fp)
	var sc frame.Scratch
	for i := 0; i < nPaths; i++ {
		tgt, err := pathTarget(tr.AM, opps, fp.Paths[i], cfg, &sc)
		if err != nil {
			if i == 0 {
				return nil, fmt.Errorf("evaluating paths: %w", err)
			}
			continue
		}
		add(rowPath, nil, tgt, predOracle, predHistory)
	}

	if len(braids) == 0 {
		return nil, fmt.Errorf("evaluating braids: sim: no braids")
	}
	for i := 0; i < nBraids; i++ {
		br := braids[i]
		fr := hot
		if i > 0 {
			var err error
			if fr, err = frame.Build(tr.AM, &br.Region, cfg.Frame, &sc); err != nil {
				continue // e.g. unframeable region; skip candidate
			}
		}
		if fr == nil {
			continue // braids[0] could not be framed
		}
		add(rowBraid, br, braidTarget(opps, br, fr, cfg), predHistory, predAlways)
	}

	hb := region.BuildTunedHyperblock(tr.AM, fp, fp.F.Blocks[fp.HottestPath().Blocks[0]], coldFraction, 0.05)
	tgt, err := hyperblockTarget(tr.AM, fp, hb, cfg, &sc)
	if err != nil {
		return nil, fmt.Errorf("evaluating hyperblock: %w", err)
	}
	add(rowHyperblock, nil, tgt, predAlways)
	return c, nil
}

// Replay evaluates every row in one walk of the trace, each under a fresh
// predictor, and applies the filter.
func (c *Candidates) Replay() {
	results := Evaluate(c.tr, c.lanes(), c.cfg)
	for i := range results {
		r, res := &c.rows[i], &results[i]
		r.result = res
		// A braid must not trade energy for speed: offload exists to save
		// energy (Section I), so the filter requires both axes to be no
		// worse than the host baseline.
		r.accepted = r.kind != rowBraid || res.OffloadEnergyPJ <= res.BaselineEnergyPJ
	}
}

// lanes returns one lane per row, each with a fresh predictor. The history
// lanes' tables are carved from one allocation.
func (c *Candidates) lanes() []Lane {
	n := 0
	for _, r := range c.rows {
		if r.pred == predHistory {
			n++
		}
	}
	hists := spec.NewHistories(n, c.cfg.HistBits)
	lanes := make([]Lane, len(c.rows))
	for i, r := range c.rows {
		var p spec.Predictor
		switch r.pred {
		case predHistory:
			p, hists = &hists[0], hists[1:]
		case predOracle:
			p = &spec.Oracle{}
		default:
			p = spec.Always{}
		}
		lanes[i] = Lane{Target: r.target, Pred: p}
	}
	return lanes
}

// PathChoice is the path-side selection: the best path under the history
// predictor and under the oracle bound, each the first row with the fewest
// offload cycles. The hottest path's rows always take part.
func (c *Candidates) PathChoice() (history, oracle Result) {
	var h, o *Result
	for i := range c.rows {
		r := &c.rows[i]
		if r.kind != rowPath {
			continue
		}
		best := &h
		if r.result.Predictor == "oracle" {
			best = &o
		}
		if *best == nil || r.result.OffloadCycles < (*best).OffloadCycles {
			*best = r.result
		}
	}
	return *h, *o
}

// BraidChoice reproduces Needle's filter-and-rank stage for braids: the
// accepted braid row with the fewest cycles, the first among equals, or no
// offload when nothing profits (Section IV-B: "NEEDLE provides a methodical
// framework to reason about this tradeoff").
func (c *Candidates) BraidChoice() Candidate {
	tr := c.tr
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
	for _, r := range c.rows {
		if r.kind == rowBraid && r.accepted && r.result.OffloadCycles < best.Result.OffloadCycles {
			best = Candidate{Result: *r.result, Braid: r.braid, Policy: r.result.Predictor}
		}
	}
	return best
}

// Hyperblock is the non-speculative hyperblock baseline seeded at the
// hottest path's entry, under always-invoke (it cannot fail).
func (c *Candidates) Hyperblock() Result {
	return *c.rows[len(c.rows)-1].result
}
