package profile

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/oracle"
	"needle/internal/pm"
	"needle/internal/workloads"
)

// feedEvent is one fed instruction: its opcode, its destination (-1 when it
// defines none) and, for a memory op, its effective address.
type feedEvent struct {
	op   ir.Op
	dst  int32
	addr int64
}

// pathEnd is one completed path and the branch-history register when it
// completed, which pins where path ends fall among the branch outcomes.
type pathEnd struct {
	id   int64
	hist uint64
}

// recTiming records the exact stream a timing model would see — every fed
// instruction, branch outcome and completed path, plus the branch-history
// register the outcomes shift — so the fast path and the hook path can be
// compared instruction by instruction.
type recTiming struct {
	feeds    []feedEvent
	branches []bool
	hist     uint64
	ends     []pathEnd
}

// FeedBlock expands the first n entries of the packet, pairing each memory
// entry with the next address.
func (r *recTiming) FeedBlock(pk *interp.TimingPacket, n int, addrs []int64) {
	for _, e := range pk.Ent[:n] {
		ev := feedEvent{op: ir.Op(e.Op), dst: e.Dst}
		if e.Class == interp.TimingClassMem {
			ev.addr, addrs = addrs[0], addrs[1:]
		}
		r.feeds = append(r.feeds, ev)
	}
}

func (r *recTiming) NoteBranch(taken bool) {
	r.branches = append(r.branches, taken)
	r.hist = r.hist<<1 | b2u(taken)
}

func (r *recTiming) EndPath(id int64) { r.ends = append(r.ends, pathEnd{id, r.hist}) }

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// hookOracle collects, on the hook interpreter, the profile the compiled
// plan must reproduce: a Ball-Larus profiler plus block and edge counters
// that ignore every block outside the profiled function, so a callee's
// blocks are not profiled.
type hookOracle struct {
	f      *ir.Function
	prof   *oracle.Profiler
	blocks []int64
	edges  map[Edge]int64
}

func newHookOracle(t testing.TB, f *ir.Function) *hookOracle {
	t.Helper()
	dag, err := ballarus.Build(pm.NewManager(), f)
	if err != nil {
		t.Fatalf("ballarus.Build: %v", err)
	}
	prof := oracle.NewProfiler(dag)
	prof.RecordTrace = true
	return &hookOracle{f: f, prof: prof, blocks: make([]int64, len(f.Blocks)), edges: make(map[Edge]int64)}
}

func (o *hookOracle) member(b *ir.Block) bool {
	return b.Index < len(o.f.Blocks) && o.f.Blocks[b.Index] == b
}

// hooks returns the interpreter hooks that feed the oracle.
func (o *hookOracle) hooks() *interp.Hooks {
	own := &interp.Hooks{
		Block: func(b *ir.Block) {
			if o.member(b) {
				o.blocks[b.Index]++
			}
		},
		Edge: func(from, to *ir.Block) {
			if o.member(from) {
				o.edges[Edge{from.Index, to.Index}]++
			}
		},
	}
	return oracle.CombineHooks(own, o.prof.Hooks())
}

// finish ranks the oracle's counts as a FunctionProfile, keeping the block
// and edge counts the hooks measured. Those counts must be the ones the
// path trace implies: the profiler takes its edge values from the compiled
// plan overlay the collector runs too, so this decode of its path IDs
// through the DAG is what ties both to the blocks that really ran.
func (o *hookOracle) finish(t testing.TB) *FunctionProfile {
	t.Helper()
	var recs []Path
	for id, n := range o.prof.Counts {
		recs = append(recs, Path{ID: id, Freq: n})
	}
	fp := &FunctionProfile{F: o.f, DAG: o.prof.DAG(), EdgeCounts: o.edges, BlockCounts: o.blocks}
	if err := fp.rankCounts(recs, decodeFloor); err != nil {
		t.Fatalf("oracle rankCounts: %v", err)
	}
	sortPaths(fp.Paths)
	var err error
	if fp.Runs, err = runTrace(fp.Paths, o.prof.Trace); err != nil {
		t.Fatalf("oracle runTrace: %v", err)
	}
	if _, err := fp.Data(); err != nil {
		t.Fatalf("oracle path trace disagrees with the blocks and edges that ran: %v", err)
	}
	return fp
}

// timingHooks records on interpreter hooks the stream a recTiming records
// on the plan: the Mem event captures the effective address of the memory
// Instr event that follows, and condbr edges report the branch outcome.
// It leaves r.hist to histHooks.
func timingHooks(r *recTiming) *interp.Hooks {
	var pend int64
	return &interp.Hooks{
		Mem: func(_ *ir.Instr, addr int64) { pend = addr },
		Instr: func(in *ir.Instr) {
			ev := feedEvent{op: in.Op, dst: -1}
			if in.Op.HasDest() {
				ev.dst = int32(in.Dst)
			}
			if in.Op.IsMemory() {
				ev.addr = pend
			}
			r.feeds = append(r.feeds, ev)
		},
		Edge: func(from, to *ir.Block) {
			if t := from.Term(); t != nil && t.Op == ir.OpCondBr {
				r.branches = append(r.branches, t.Blocks[0] == to)
			}
		},
	}
}

// histHooks updates a branch-history shift register from edge events, as
// oracle.HistoryTracker does.
func histHooks(h *uint64) *interp.Hooks {
	return &interp.Hooks{
		Edge: func(from, to *ir.Block) {
			if t := from.Term(); t != nil && t.Op == ir.OpCondBr {
				bit := uint64(0)
				if t.Blocks[0] == to {
					bit = 1
				}
				*h = *h<<1 | bit
			}
		},
	}
}

// runStyle profiles f once, timed, and returns everything observable: the
// result, the final memory, the timing stream (fed instructions, branch
// outcomes, the branch-history register and the completed path IDs), and
// the finished profile. hooked runs the hook oracle instead of the
// collector, with the history register kept by histHooks and the path ends
// by the Ball-Larus profiler's OnPath.
func runStyle(t *testing.T, f *ir.Function, initMem []uint64, args []uint64, hooked bool, maxSteps int64) (
	interp.Result, error, []uint64, *recTiming, *FunctionProfile,
) {
	t.Helper()
	mem := append([]uint64(nil), initMem...)
	tm := &recTiming{}
	var res interp.Result
	var runErr error
	var fp *FunctionProfile
	if hooked {
		o := newHookOracle(t, f)
		// The profiler's hooks run before histHooks', as EndPath runs
		// before the completing branch's NoteBranch.
		o.prof.OnPath = tm.EndPath
		res, runErr = interp.Run(f, args, mem, oracle.CombineHooks(o.hooks(), timingHooks(tm), histHooks(&tm.hist)), maxSteps)
		if runErr == nil {
			fp = o.finish(t)
		}
		return res, runErr, mem, tm, fp
	}
	c, err := NewCollector(nil, f, true)
	if err != nil {
		t.Fatalf("NewCollector: %v", err)
	}
	res, runErr = c.RunTimed(args, mem, interp.PlanOpts{MaxSteps: maxSteps, Timing: tm})
	if runErr == nil {
		if fp, err = c.Finish(); err != nil {
			t.Fatalf("Finish: %v", err)
		}
	}
	return res, runErr, mem, tm, fp
}

func compareProfiles(t *testing.T, seed int64, fast, hook *FunctionProfile) {
	t.Helper()
	if fast.TotalWeight != hook.TotalWeight {
		t.Fatalf("seed %d: TotalWeight fast=%d hook=%d", seed, fast.TotalWeight, hook.TotalWeight)
	}
	if len(fast.Paths) != len(hook.Paths) {
		t.Fatalf("seed %d: path count fast=%d hook=%d", seed, len(fast.Paths), len(hook.Paths))
	}
	for i := range fast.Paths {
		a, b := fast.Paths[i], hook.Paths[i]
		if a.ID != b.ID || a.Freq != b.Freq || a.Ops != b.Ops || a.Weight != b.Weight {
			t.Fatalf("seed %d: path %d differs: fast={id %d freq %d ops %d} hook={id %d freq %d ops %d}",
				seed, i, a.ID, a.Freq, a.Ops, b.ID, b.Freq, b.Ops)
		}
	}
	if !reflect.DeepEqual(fast.Runs, hook.Runs) {
		t.Fatalf("seed %d: traces differ (fast %d runs, hook %d)", seed, len(fast.Runs), len(hook.Runs))
	}
	if !reflect.DeepEqual(fast.BlockCounts, hook.BlockCounts) {
		t.Fatalf("seed %d: block counts differ\nfast %v\nhook %v", seed, fast.BlockCounts, hook.BlockCounts)
	}
	if !reflect.DeepEqual(fast.EdgeCounts, hook.EdgeCounts) {
		t.Fatalf("seed %d: edge counts differ\nfast %v\nhook %v", seed, fast.EdgeCounts, hook.EdgeCounts)
	}
}

// TestFastPathMatchesHooksOnRandomCFGs is the differential oracle for the
// compiled-plan fast path: across hundreds of random structured CFGs,
// RunProfiled must be observationally identical to hook-based interp.Run —
// same return value and step count, same final memory, same timing event
// stream (fed instructions with memory addresses, and branch outcomes, in
// order), same history register, same completed-path sequence, and a
// byte-identical finished profile.
func TestFastPathMatchesHooksOnRandomCFGs(t *testing.T) {
	const seeds = 300
	cfg := irgen.DefaultConfig()
	for seed := int64(0); seed < seeds; seed++ {
		p := irgen.Generate(seed, cfg)
		args := []uint64{uint64(seed*7 + 3)}

		resF, errF, memF, tmF, fpF := runStyle(t, p.F, p.Mem, args, false, 0)
		resH, errH, memH, tmH, fpH := runStyle(t, p.F, p.Mem, args, true, 0)
		if errF != nil || errH != nil {
			t.Fatalf("seed %d: run errors: fast=%v hook=%v", seed, errF, errH)
		}
		if resF != resH {
			t.Fatalf("seed %d: result fast=%+v hook=%+v", seed, resF, resH)
		}
		if !reflect.DeepEqual(memF, memH) {
			t.Fatalf("seed %d: final memory differs", seed)
		}
		if !reflect.DeepEqual(tmF.feeds, tmH.feeds) {
			t.Fatalf("seed %d: timing feed streams differ (fast %d events, hook %d)",
				seed, len(tmF.feeds), len(tmH.feeds))
		}
		if !reflect.DeepEqual(tmF.branches, tmH.branches) {
			t.Fatalf("seed %d: branch outcome streams differ", seed)
		}
		if tmF.hist != tmH.hist {
			t.Fatalf("seed %d: history register fast=%#x hook=%#x", seed, tmF.hist, tmH.hist)
		}
		if !reflect.DeepEqual(tmF.ends, tmH.ends) {
			t.Fatalf("seed %d: completed-path sequences differ", seed)
		}
		compareProfiles(t, seed, fpF, fpH)
	}
}

// TestFastPathParallelCondBr covers the degenerate condbr whose two targets
// are the same block: the CFG has a single edge (and a single Ball-Larus
// annotation) for it, and the hook path reports the branch as taken on
// either side. The fast path must agree on counts, history bits, and the
// timing model's branch stream.
func TestFastPathParallelCondBr(t *testing.T) {
	src := `func @par(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [step: r8]
  r4 = cmp.lt r3, r1
  condbr r4, %body, %exit
body:
  r5 = and r3, r4
  condbr r5, %step, %step
step:
  r7 = const.i64 1
  r8 = add r3, r7
  br %head
exit:
  ret r3
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	args := []uint64{interp.IBits(25)}
	resF, errF, _, tmF, fpF := runStyle(t, f, nil, args, false, 0)
	resH, errH, _, tmH, fpH := runStyle(t, f, nil, args, true, 0)
	if errF != nil || errH != nil {
		t.Fatalf("run errors: fast=%v hook=%v", errF, errH)
	}
	if resF != resH {
		t.Fatalf("result fast=%+v hook=%+v", resF, resH)
	}
	if tmF.hist != tmH.hist {
		t.Fatalf("history fast=%#x hook=%#x", tmF.hist, tmH.hist)
	}
	if !reflect.DeepEqual(tmF.branches, tmH.branches) {
		t.Fatalf("branch streams differ:\nfast %v\nhook %v", tmF.branches, tmH.branches)
	}
	if !reflect.DeepEqual(tmF.ends, tmH.ends) {
		t.Fatal("completed-path sequences differ")
	}
	compareProfiles(t, -1, fpF, fpH)
}

// TestFastPathStepLimitMatchesHooks checks that the fast path enforces the
// step budget at exactly the same instruction as the hook interpreter, with
// the same error message — phis and terminators included.
func TestFastPathStepLimitMatchesHooks(t *testing.T) {
	cfg := irgen.DefaultConfig()
	for seed := int64(0); seed < 40; seed++ {
		p := irgen.Generate(seed, cfg)
		args := []uint64{uint64(seed + 11)}
		for _, limit := range []int64{1, 2, 3, 7, 50, 1000} {
			resF, errF, _, _, _ := runStyle(t, p.F, p.Mem, args, false, limit)
			resH, errH, _, _, _ := runStyle(t, p.F, p.Mem, args, true, limit)
			if (errF == nil) != (errH == nil) {
				t.Fatalf("seed %d limit %d: fast err %v, hook err %v", seed, limit, errF, errH)
			}
			if errF != nil && errF.Error() != errH.Error() {
				t.Fatalf("seed %d limit %d: error text differs:\nfast: %v\nhook: %v", seed, limit, errF, errH)
			}
			if resF.Steps != resH.Steps {
				t.Fatalf("seed %d limit %d: steps fast=%d hook=%d", seed, limit, resF.Steps, resH.Steps)
			}
		}
	}
}

// callSrc's loop calls a leaf that loads and stores, so a step limit can
// land before, inside and after each call.
const callSrc = `func @leaf(i64) {
entry:
  r2 = load.i64 r1
  r3 = const.i64 3
  r4 = mul r2, r3
  r5 = cmp.gt r4, r3
  condbr r5, %big, %small
big:
  store.i64 r1, r4
  ret r4
small:
  ret r3
}

func @main(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [body: r4]
  r5 = phi.i64 [entry: r2] [body: r6]
  r7 = cmp.lt r3, r1
  condbr r7, %body, %exit
body:
  r8 = call.i64 @leaf r3
  r6 = add r5, r8
  r9 = const.i64 1
  r4 = add r3, r9
  br %head
exit:
  ret r5
}
`

// runUntimed profiles one untimed run of f, by the collector or by the hook
// oracle, and returns the result, the final memory and the profile of
// whatever completed, faulting runs included.
func runUntimed(t *testing.T, f *ir.Function, initMem, args []uint64, hooked bool, maxSteps int64) (
	interp.Result, error, []uint64, *FunctionProfile,
) {
	t.Helper()
	mem := append([]uint64(nil), initMem...)
	if hooked {
		o := newHookOracle(t, f)
		res, err := interp.Run(f, args, mem, o.hooks(), maxSteps)
		return res, err, mem, o.finish(t)
	}
	c, err := NewCollector(nil, f, true)
	if err != nil {
		t.Fatalf("NewCollector: %v", err)
	}
	res, runErr := c.Run(args, mem, maxSteps)
	fp, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res, runErr, mem, fp
}

// assertUntimedMatchesOracle runs f both ways at one step limit and demands
// the same result, error text, memory and profile. The profiles' run-coded
// traces (compareProfiles' Runs check) pin the completed-path sequence.
func assertUntimedMatchesOracle(t *testing.T, name string, f *ir.Function, mem, args []uint64, maxSteps int64) {
	t.Helper()
	resF, errF, memF, fpF := runUntimed(t, f, mem, args, false, maxSteps)
	resH, errH, memH, fpH := runUntimed(t, f, mem, args, true, maxSteps)
	if resF != resH || (errF == nil) != (errH == nil) || (errF != nil && errF.Error() != errH.Error()) {
		t.Fatalf("%s limit %d: plan %+v, %v; oracle %+v, %v", name, maxSteps, resF, errF, resH, errH)
	}
	if !reflect.DeepEqual(memF, memH) {
		t.Fatalf("%s limit %d: final memory differs", name, maxSteps)
	}
	compareProfiles(t, maxSteps, fpF, fpH)
}

// TestCallsMatchOracle is the untimed call differential: at every step
// limit, landing before, inside and after each call, the collector's run
// matches the hook oracle, whose member filter drops the callee's blocks.
func TestCallsMatchOracle(t *testing.T) {
	m, err := ir.Parse(callSrc)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Func("main")
	mem := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	args := []uint64{interp.IBits(8)}
	full, err := interp.Run(f, args, append([]uint64(nil), mem...), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for limit := int64(1); limit <= full.Steps+1; limit++ {
		assertUntimedMatchesOracle(t, "main", f, mem, args, limit)
	}
	// A timed run cannot feed the callee's instructions to a model.
	if _, err, _, _, _ := runStyle(t, f, mem, args, false, 0); !errors.Is(err, interp.ErrTimedCall) {
		t.Fatalf("timed run of a function with calls: %v, want ErrTimedCall", err)
	}
}

// TestRawNamdMatchesOracle profiles 444.namd's raw kernel, which still calls
// its pairwise-force helper, against the hook oracle: the one workload
// function that exercises the call path.
func TestRawNamdMatchesOracle(t *testing.T) {
	f, args, mem := workloads.ByName("444.namd").Instance(200)
	calls := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls++
			}
		}
	}
	if calls == 0 {
		t.Fatal("raw 444.namd makes no call; the test no longer covers the call path")
	}
	assertUntimedMatchesOracle(t, "444.namd", f, mem, args, 0)
}

// TestCollectRecursiveFunction: every call, a recursive one included, runs
// unprofiled, so the profile of fact(n) covers exactly the instructions its
// outermost frame executed — all of fact(n)'s minus fact(n-1)'s.
func TestCollectRecursiveFunction(t *testing.T) {
	f, err := ir.ParseFunction(`func @fact(i64) {
entry:
  r2 = const.i64 1
  r3 = cmp.le r1, r2
  condbr r3, %base, %rec
base:
  ret r2
rec:
  r4 = sub r1, r2
  r5 = call.i64 @fact r4
  r6 = mul r1, r5
  ret r6
}
`)
	if err != nil {
		t.Fatal(err)
	}
	steps := func(n int64) int64 {
		res, err := interp.Run(f, []uint64{interp.IBits(n)}, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Steps
	}
	fp, err := CollectFunction(nil, f, []uint64{interp.IBits(6)}, nil, true, 0)
	if err != nil {
		t.Fatalf("CollectFunction(fact 6): %v", err)
	}
	if want := steps(6) - steps(5); fp.TotalWeight != want {
		t.Fatalf("TotalWeight = %d, want %d (steps of fact 6 minus fact 5)", fp.TotalWeight, want)
	}
	if len(fp.Paths) != 1 || !slices.Equal(fp.Runs, []Run{{Rank: 0, Len: 1}}) {
		t.Fatalf("fact(6)'s outer frame ran %d paths (trace %v), want one", len(fp.Paths), fp.Runs)
	}
}
