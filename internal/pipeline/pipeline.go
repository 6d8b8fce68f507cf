// Package pipeline is the staged decomposition of the Needle flow (the
// paper's Figure 1): Inline → Profile → Select → Frame → Target. Each stage
// is a pure (artifacts, config) → artifacts step with a typed artifact
// struct, and each declares a fingerprint over exactly the Config fields it
// reads. The fingerprints buy cross-config artifact reuse: a Cache keys
// each stage's artifact by (program key, cumulative upstream fingerprint),
// so a sweep over downstream knobs — predictor history bits, guard
// placement, CGRA parameters — shares the expensive Inline/Profile/Select
// artifacts instead of re-profiling the program per configuration. The
// program key embeds a content digest of the IR and initial state, so a
// persistent DiskStore never serves a stale artifact after a same-named
// program's body changes across binary versions.
//
// The last stage, Target, is never cached. It runs its two evaluations, sim
// (the offload selections) and hls (the synthesis estimate of the hot-braid
// frame), into the typed fields of one TargetArtifact.
//
// Run is the only way to execute the pipeline; core.Analyzer is the
// embedders' front door over it.
package pipeline

import (
	"context"
	"fmt"

	"needle/internal/frame"
	"needle/internal/hls"
	"needle/internal/ir"
	"needle/internal/obs"
	"needle/internal/passes"
	"needle/internal/pm"
	"needle/internal/program"
	"needle/internal/region"
	"needle/internal/sim"
)

// Observability counters (no-ops until obs.Enable).
var (
	obsRuns       = obs.GetCounter("pipeline.runs")
	obsFrameErrs  = obs.GetCounter("pipeline.frame.errors")
	obsOptRuns    = obs.GetCounter("pipeline.opt.runs")
	obsOptRemoved = obs.GetCounter("pipeline.opt.removed")
)

// Config controls an analysis run. The core package exposes it as
// core.Config (a type alias), so a core.Analyzer and a direct Run take the
// same value.
type Config struct {
	// Sim holds the hardware model parameters (Table V defaults).
	Sim sim.Config
	// N overrides the workload problem size; 0 keeps the default.
	N int
	// ColdFraction is the hyperblock cold-op threshold (Figure 5).
	ColdFraction float64
	// SelectTopK bounds the filter-and-rank candidate search.
	SelectTopK int
	// Opt enables the opt-in optimization pre-pass (`needle -O`): SCCP
	// folding plus dead-code and unreachable-block elimination between the
	// Inline and Profile stages. Default off — the baseline profiles the
	// program exactly as written. The flag is part of every downstream
	// stage's fingerprint, so optimized and unoptimized artifacts never
	// cross-hit a store.
	Opt bool
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{
		Sim:          sim.DefaultConfig(),
		ColdFraction: 0.1,
		SelectTopK:   3,
	}
}

// WithDefaults normalizes a config field by field: every zero-valued field
// takes its DefaultConfig value, and every field the caller set survives. A
// partially-filled Config (say, a custom Sim with SelectTopK left zero) is
// therefore honored rather than silently replaced wholesale — N is the one
// exception, where zero legitimately means "the workload's default size".
//
// Run normalizes before fingerprinting, so a zero Config and an explicit
// DefaultConfig() hit the same cache entries.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.Sim == (sim.Config{}) {
		c.Sim = d.Sim
	}
	if c.ColdFraction == 0 {
		c.ColdFraction = d.ColdFraction
	}
	if c.SelectTopK == 0 {
		c.SelectTopK = d.SelectTopK
	}
	return c
}

// InlineArtifact is the Inline stage's output: the program instance with
// its hot function aggressively inlined (Section II-A), plus the analysis
// manager that owns every cached analysis of that function. Args and Memory
// are the pristine initial state; stages that execute the function copy
// them first, so the artifact can be shared across runs.
type InlineArtifact struct {
	AM     *pm.Manager
	F      *ir.Function
	Args   []uint64
	Memory []uint64
}

// OptArtifact is the Opt stage's output: the inlined function after the
// `-O` pipeline (SCCP folding, DCE, CFG simplification to a fixed point),
// with its own analysis manager. Produced only when Config.Opt is set.
type OptArtifact struct {
	AM *pm.Manager
	F  *ir.Function
	// InstrsBefore/InstrsAfter and BlocksBefore/BlocksAfter summarize what
	// the optimizer removed, for reports and spans.
	InstrsBefore, InstrsAfter int
	BlocksBefore, BlocksAfter int
}

// ProfileArtifact is the Profile stage's output: the captured baseline
// execution (Ball-Larus path profile, per-occurrence cycle attribution,
// branch histories, host energy).
type ProfileArtifact struct {
	Trace *sim.Trace
}

// SelectArtifact is the Select stage's output: the static control-flow
// characterization (Table I) and every braid ranked by weight (Table IV).
type SelectArtifact struct {
	CFStats region.ControlFlowStats
	Braids  []*region.Braid
}

// FrameArtifact is the Frame stage's output: the software frame of the top
// braid. HotBraidFrame is nil when the program formed no braids or when
// frame construction failed; FrameErr distinguishes the two (it records the
// frame.Build error, and is nil when no build was attempted or the build
// succeeded).
type FrameArtifact struct {
	HotBraidFrame *frame.Frame
	FrameErr      error
}

// TargetArtifact is the Target stage's output: the sim evaluation's offload
// selections (Figures 2, 9 and 10) and the hls evaluation's synthesis
// estimate of the hot-braid frame (Section VI).
type TargetArtifact struct {
	// PathOracle and PathHistory evaluate the best BL-Path offload under
	// the oracle bound and the invocation history table.
	PathOracle  sim.Result
	PathHistory sim.Result
	// BraidChoice is the filter-and-rank braid selection.
	BraidChoice sim.Candidate
	// Hyperblock is the non-speculative predicated baseline.
	Hyperblock sim.Result
	// HLS is the estimated FPGA synthesis of the hot-braid frame: the zero
	// Report when the Frame stage built no frame.
	HLS hls.Report
}

// Artifacts is the artifact context threaded through the stages: the run's
// identity (program + normalized config), its observability span, and one
// typed artifact per completed stage. When a Cache is in use, upstream
// artifacts may be shared with other runs — stages treat them as read-only.
type Artifacts struct {
	Program *program.Program
	Config  Config
	// Span is the run's observability span; stages and the Target stage's
	// evaluations parent their spans under it. The run's pm.Manager
	// travels in Inline.AM.
	Span *obs.Span

	Inline  *InlineArtifact
	Opt     *OptArtifact
	Profile *ProfileArtifact
	Select  *SelectArtifact
	Frame   *FrameArtifact
	Target  *TargetArtifact
}

// HotFunc returns the function downstream stages profile and select over,
// with the analysis manager that owns its cached analyses: the optimized
// function when the Opt stage ran, the inlined function otherwise.
func (a *Artifacts) HotFunc() (*pm.Manager, *ir.Function) {
	if a.Opt != nil {
		return a.Opt.AM, a.Opt.F
	}
	return a.Inline.AM, a.Inline.F
}

// Stage is one named step of the pipeline.
type Stage struct {
	// Name identifies the stage ("inline", "profile", "select", "frame",
	// "target") in spans, cache statistics, and documentation.
	Name string
	// Fingerprint appends to b exactly the Config fields this stage reads,
	// serialized, and returns the extended buffer. A stage's cache key is
	// the program key plus the cumulative fingerprints of itself and every
	// upstream stage, so two configs that agree on the upstream knobs share
	// upstream artifacts.
	Fingerprint func(b []byte, c Config) []byte
	// cacheable marks stages whose artifact a Cache may share across runs.
	// The Target stage always evaluates fresh: it is the downstream end of
	// every sweep and memoizing it would hide exactly the work ablations
	// measure.
	cacheable bool
	// run computes the stage artifact from the upstream artifacts. It must
	// not mutate them. sp is the stage's span.
	run func(a *Artifacts, sp *obs.Span) (any, error)
	// apply installs the (possibly cached) artifact into the context.
	apply func(a *Artifacts, out any)
	// encode/decode are the stage's persistent codec (codec.go): encode
	// serializes the artifact's pure data; decode rehydrates attached state
	// against the in-context upstream artifacts. A stage declares one only
	// when decoding is cheaper than recomputing (Opt, Profile, Select);
	// stages without a codec (Inline and Frame, cheap passes over the IR,
	// and Target, which is never cached) are served by the memory tier only.
	encode func(a *Artifacts, out any) ([]byte, error)
	decode func(a *Artifacts, data []byte) (any, error)
	// skip, when non-nil and true for a config, elides the stage entirely
	// for that run (no span, no cache entry, no artifact). The stage's
	// fingerprint still participates in every downstream cache key, so
	// skipped and unskipped runs can never share downstream artifacts.
	skip func(Config) bool
}

// stages is the pipeline in execution order.
var stages = [...]Stage{inlineStage, optStage, profileStage, selectStage, frameStage, targetStage}

// StageNames lists the pipeline's stages in execution order.
func StageNames() []string {
	names := make([]string, len(stages))
	for i, st := range stages {
		names[i] = st.Name
	}
	return names
}

// stageKeys returns the cumulative cache key of every stage for a normalized
// config: the program key ("<name>@<content digest>") plus the fingerprints
// of the stage and everything upstream of it, in execution order. Keying on
// the digest rather than the bare name is what makes persisted artifacts
// safe across binary versions: two different bodies behind one name can
// never serve each other's artifacts, and the name stays in the key so
// entries remain debuggable (and name-bearing cached errors never leak
// across same-content programs). Every stage's segment is written into one
// buffer, converted once, so each key is a prefix of the last.
func stageKeys(p *program.Program, cfg Config) []string {
	var ends [len(stages)]int
	b := make([]byte, 0, keyBytes)
	b = append(append(append(b, p.Name...), '@'), p.Digest()...)
	for i := range stages {
		b = append(append(append(b, '|'), stages[i].Name...), '{')
		b = append(stages[i].Fingerprint(b, cfg), '}')
		ends[i] = len(b)
	}
	all := string(b)
	keys := make([]string, len(stages))
	for i, end := range ends {
		keys[i] = all[:end]
	}
	return keys
}

// keyBytes is room for a full run key: 663 bytes for a workload under the
// default config, most of them the host and CGRA models' fields.
const keyBytes = 1024

// Fingerprint returns the full cumulative fingerprint of a run: the program
// key plus every stage's config fingerprint, after the same normalization
// Run applies. Two runs with equal fingerprints produce byte-identical
// artifacts and summaries, so request-collapsing layers (the serve daemon's
// singleflight) key on it.
func Fingerprint(p *program.Program, cfg Config) string {
	keys := stageKeys(p, cfg.WithDefaults())
	return keys[len(keys)-1]
}

var inlineStage = Stage{
	Name: "inline",
	// N selects which instance a workload materializes as a Program, and it
	// is reported verbatim in summaries. The program digest already
	// separates different instances, but N=0 ("the default size") and an
	// explicit N=default produce the same Program with different summary
	// bytes — the fingerprint keeps them distinct for request-collapsing
	// layers that key on the full Fingerprint.
	Fingerprint: func(b []byte, c Config) []byte { return fmt.Appendf(b, "n=%d", c.N) },
	cacheable:   true,
	run: func(a *Artifacts, sp *obs.Span) (any, error) {
		p := a.Program
		psp := sp.Child("pass inline")
		f, err := passes.InlineAll(p.F)
		psp.SetArg("function", p.F.Name).SetArg("changed", err == nil && f != p.F).End()
		if err != nil {
			return nil, fmt.Errorf("pipeline: inlining %s: %w", p.Name, err)
		}
		// The artifact owns a fresh analysis manager: every cached analysis
		// of the inlined function (dominators, liveness, execution plans)
		// is computed once and shared by every run that reuses the
		// artifact. It holds no span, since those runs are not this one.
		return &InlineArtifact{AM: pm.NewManager(), F: f, Args: p.Args, Memory: p.Memory}, nil
	},
	apply: func(a *Artifacts, out any) { a.Inline = out.(*InlineArtifact) },
}

var optStage = Stage{
	Name: "opt",
	// The flag itself is the whole fingerprint: with Opt off the stage is
	// skipped, and the "opt=false" key segment keeps unoptimized runs from
	// ever sharing downstream artifacts with optimized ones.
	Fingerprint: func(b []byte, c Config) []byte { return fmt.Appendf(b, "opt=%t", c.Opt) },
	cacheable:   true,
	skip:        func(c Config) bool { return !c.Opt },
	run: func(a *Artifacts, sp *obs.Span) (any, error) {
		in := a.Inline
		// Clone first: the inline artifact may be shared with other runs
		// (including unoptimized ones) through the store.
		f := ir.CloneFunction(in.F)
		for changed := true; changed; {
			changed = false
			for _, t := range optTransforms {
				psp := sp.Child("pass " + t.name)
				ch := t.run(f) > 0
				psp.SetArg("function", f.Name).SetArg("changed", ch).End()
				changed = changed || ch
			}
		}
		if verr := ir.Verify(f); verr != nil {
			return nil, fmt.Errorf("pipeline: optimizer broke %s: %w", a.Program.Name, verr)
		}
		art := &OptArtifact{
			AM: pm.NewManager(), F: f,
			InstrsBefore: in.F.NumInstrs(), InstrsAfter: f.NumInstrs(),
			BlocksBefore: len(in.F.Blocks), BlocksAfter: len(f.Blocks),
		}
		obsOptRuns.Add(1)
		obsOptRemoved.Add(int64(art.InstrsBefore - art.InstrsAfter))
		sp.SetArg("instrs", fmt.Sprintf("%d->%d", art.InstrsBefore, art.InstrsAfter)).
			SetArg("blocks", fmt.Sprintf("%d->%d", art.BlocksBefore, art.BlocksAfter))
		return art, nil
	},
	apply:  func(a *Artifacts, out any) { a.Opt = out.(*OptArtifact) },
	encode: optEncode,
	decode: optDecode,
}

// optTransforms is the `-O` pipeline the Opt stage runs to a fixed point:
// SCCP folding, dead-code elimination, and CFG simplification (which drops
// the blocks the folded branches made unreachable).
var optTransforms = []struct {
	name string
	run  func(*ir.Function) int
}{
	{"sccpfold", passes.SCCPFold},
	{"dce", passes.DeadCodeElim},
	{"simplifycfg", passes.SimplifyCFG},
}

var profileStage = Stage{
	Name: "profile",
	Fingerprint: func(b []byte, c Config) []byte {
		// Capture reads the host model only: OOO core, cache hierarchy,
		// CPU energy constants, and the step and occurrence bounds.
		// CGRA/frame/predictor parameters are downstream knobs and must not
		// fragment the key.
		return fmt.Appendf(b, "ooo=%+v mem=%+v cpu=%+v maxsteps=%d maxocc=%d",
			c.Sim.OOO, c.Sim.Mem, c.Sim.CPU, c.Sim.MaxSteps, c.Sim.MaxOccurrences)
	},
	cacheable: true,
	run: func(a *Artifacts, sp *obs.Span) (any, error) {
		in := a.Inline
		am, f := a.HotFunc()
		// Execution consumes the memory image; copy the pristine state so
		// the shared InlineArtifact stays reusable.
		args := append([]uint64(nil), in.Args...)
		memory := append([]uint64(nil), in.Memory...)
		// The capture's spans go under this stage's span; the stored trace
		// keeps the span-free manager, so it carries no run's span.
		tr, err := sim.Capture(am.WithSpan(sp), f, args, memory, a.Config.Sim)
		if err != nil {
			return nil, fmt.Errorf("pipeline: capturing %s: %w", a.Program.Name, err)
		}
		tr.AM = am
		return &ProfileArtifact{Trace: tr}, nil
	},
	apply:  func(a *Artifacts, out any) { a.Profile = out.(*ProfileArtifact) },
	encode: profileEncode,
	decode: profileDecode,
}

var selectStage = Stage{
	Name: "select",
	// Characterization and braid formation depend only on the profile.
	Fingerprint: func(b []byte, _ Config) []byte { return b },
	cacheable:   true,
	run: func(a *Artifacts, sp *obs.Span) (any, error) {
		csp := sp.Child("characterize")
		am, f := a.HotFunc()
		stats := region.Characterize(am, f)
		csp.End()
		bsp := sp.Child("braids")
		braids := region.BuildBraids(a.Profile.Trace.Profile, 0)
		bsp.End()
		return &SelectArtifact{CFStats: stats, Braids: braids}, nil
	},
	apply:  func(a *Artifacts, out any) { a.Select = out.(*SelectArtifact) },
	encode: selectEncode,
	decode: selectDecode,
}

var frameStage = Stage{
	Name:        "frame",
	Fingerprint: func(b []byte, c Config) []byte { return fmt.Appendf(b, "opts=%+v", c.Sim.Frame) },
	cacheable:   true,
	run: func(a *Artifacts, sp *obs.Span) (any, error) {
		out := &FrameArtifact{}
		if len(a.Select.Braids) == 0 {
			return out, nil
		}
		am, _ := a.HotFunc()
		fr, err := frame.Build(am, &a.Select.Braids[0].Region, a.Config.Sim.Frame)
		if err != nil {
			// Frame construction failing for the hot braid is survivable —
			// the target evaluations run regardless — but it must not be
			// silent: record it for the caller (the FrameErr contract).
			out.FrameErr = fmt.Errorf("pipeline: framing hot braid of %s: %w", a.Program.Name, err)
			obsFrameErrs.Add(1)
			sp.SetArg("error", err.Error())
			return out, nil
		}
		out.HotBraidFrame = fr
		return out, nil
	},
	apply: func(a *Artifacts, out any) { a.Frame = out.(*FrameArtifact) },
}

var targetStage = Stage{
	Name: "target",
	Fingerprint: func(b []byte, c Config) []byte {
		return fmt.Appendf(b, "cgra=%+v cpu=%+v hist=%d topk=%d cold=%g",
			c.Sim.CGRA, c.Sim.CPU, c.Sim.HistBits, c.SelectTopK, c.ColdFraction)
	},
	cacheable: false,
	run: func(a *Artifacts, sp *obs.Span) (any, error) {
		out := &TargetArtifact{}
		for _, b := range Backends() {
			bsp := sp.Child("target: " + b.name)
			err := b.eval(a, out)
			bsp.End()
			if err != nil {
				return nil, fmt.Errorf("pipeline: target %s on %s: %w", b.name, a.Program.Name, err)
			}
		}
		return out, nil
	},
	apply: func(a *Artifacts, out any) { a.Target = out.(*TargetArtifact) },
}

// RunOptions configures one pipeline run.
type RunOptions struct {
	// Parent is the observability span the run's span is parented under
	// (nil for a root span).
	Parent *obs.Span
	// Store shares cacheable stage artifacts across runs — an in-memory
	// Cache or a persistent DiskStore; nil computes everything fresh.
	Store Store
	// Ctx cancels the run between stages: when it is non-nil and done, Run
	// returns ctx.Err() instead of starting the next stage. A stage already
	// in flight runs to completion (the same granularity the sweep's
	// cancellation has always had), and a cancellation never poisons the
	// artifact store — the ctx check happens outside Store.Do, and the
	// memory tier additionally refuses to memoize cancellation errors.
	Ctx context.Context
}

// Run executes the staged pipeline on one program. Zero-valued Config
// fields are filled from DefaultConfig field by field. With a Store, the
// Inline/Opt/Profile/Select/Frame artifacts are reused whenever the program
// key (name + content digest) and the cumulative upstream fingerprint match
// a prior run — from the memory tier, or (for a DiskStore) with the Opt,
// Profile and Select artifacts rehydrated from a previous process's
// persisted ones and Inline and Frame recomputed around them. The Target
// stage always evaluates fresh against the (possibly shared) upstream
// artifacts. Output is byte-identical whichever tier the artifacts come
// from. With a Ctx, the run stops between stages once the context is done
// and returns its error. A hardware config that fails sim.Config.Check is
// rejected before any stage runs.
func Run(p *program.Program, cfg Config, opts RunOptions) (*Artifacts, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Sim.Check(); err != nil {
		return nil, err
	}
	sp := opts.Parent.Child("analyze " + p.Name)
	defer sp.End()
	obsRuns.Add(1)

	a := &Artifacts{Program: p, Config: cfg, Span: sp}
	keys := stageKeys(p, cfg)
	for i := range stages {
		st := &stages[i]
		if st.skip != nil && st.skip(cfg) {
			continue
		}
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		key := keys[i]
		ssp := sp.Child(st.Name)
		var out any
		var err error
		if opts.Store != nil && st.cacheable {
			var hit bool
			out, err, hit = opts.Store.Do(st, a, key, func() (any, error) {
				return st.run(a, ssp)
			})
			ssp.SetArg("cached", hit)
		} else {
			out, err = st.run(a, ssp)
		}
		ssp.End()
		if err != nil {
			return nil, err
		}
		st.apply(a, out)
	}
	return a, nil
}
