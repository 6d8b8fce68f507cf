package sim

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/wire"
	"needle/internal/workloads"
)

// assertDerivedMatchesCaptured stores tr as the profile codec does — only
// the path trace, the cycles and the scalars — reads it back, and requires
// every value derived from the trace to equal the one captured: each path's
// frequency, the block and edge counts, and every occurrence's branch
// history, which hists lists as a live run observed it. It returns the
// stored partial tail's length.
func assertDerivedMatchesCaptured(t *testing.T, name string, f *ir.Function, tr *Trace, hists []uint64) int {
	t.Helper()
	d, err := tr.Data()
	if err != nil {
		t.Fatalf("%s: Data: %v", name, err)
	}
	r := wire.NewReader(d.Append(nil))
	stored := ReadTraceData(r)
	if err := r.Done(); err != nil {
		t.Fatalf("%s: reading the stored trace: %v", name, err)
	}
	back, err := TraceFromData(pm.NewManager(), f, stored)
	if err != nil {
		t.Fatalf("%s: TraceFromData: %v", name, err)
	}
	want, got := tr.Profile, back.Profile
	counts := func(fp *profile.FunctionProfile) map[int64]int64 {
		m := make(map[int64]int64, len(fp.Paths))
		for _, p := range fp.Paths {
			m[p.ID] = p.Freq
		}
		return m
	}
	if !reflect.DeepEqual(counts(got), counts(want)) {
		t.Fatalf("%s: derived path counts differ from the captured ones", name)
	}
	for i := range want.Paths {
		if got.Paths[i].ID != want.Paths[i].ID {
			t.Fatalf("%s: rank %d is path %d, captured %d", name, i, got.Paths[i].ID, want.Paths[i].ID)
		}
	}
	if !slices.Equal(got.Runs, want.Runs) || !slices.Equal(back.RunCycles, tr.RunCycles) {
		t.Fatalf("%s: path traces differ", name)
	}
	if !reflect.DeepEqual(got.BlockCounts, want.BlockCounts) {
		t.Fatalf("%s: derived block counts %v, captured %v", name, got.BlockCounts, want.BlockCounts)
	}
	if !reflect.DeepEqual(got.EdgeCounts, want.EdgeCounts) {
		t.Fatalf("%s: derived edge counts %v, captured %v", name, got.EdgeCounts, want.EdgeCounts)
	}
	if len(back.Occ) != len(tr.Occ) {
		t.Fatalf("%s: %d occurrences, captured %d", name, len(back.Occ), len(tr.Occ))
	}
	for i := range tr.Occ {
		if back.Occ[i] != tr.Occ[i] {
			t.Fatalf("%s: occurrence %d is %+v, captured %+v", name, i, back.Occ[i], tr.Occ[i])
		}
	}
	assertHistsDerived(t, name, back, hists)
	return len(d.Profile.Tail)
}

// TestDerivedCountsMatchCaptureWorkloads covers all 29 workloads at their
// default sizes, as the pipeline captures them.
func TestDerivedCountsMatchCaptureWorkloads(t *testing.T) {
	all := workloads.All()
	if len(all) < 29 {
		t.Fatalf("workload suite shrank: %d workloads, want >= 29", len(all))
	}
	for _, w := range all {
		f, args, memory := inlined(t, w, 0)
		tr, hists := captureLive(t, w.Name, f, args, memory)
		assertDerivedMatchesCaptured(t, w.Name, f, tr, hists)
	}
}

// TestDerivedCountsMatchCaptureRandomPrograms covers 300 generated programs.
func TestDerivedCountsMatchCaptureRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		p := irgen.Generate(seed, irgen.Config{})
		name := fmt.Sprintf("seed %d", seed)
		tr, hists := captureLive(t, name, p.F, []uint64{interp.IBits(seed)}, p.NewMem())
		assertDerivedMatchesCaptured(t, name, p.F, tr, hists)
	}
}

// cutFeed keeps the branch-history register from the plan's branch feed,
// as the host model does, snapshots it at every path completion before the
// path-ending branch shifts in, and models no cycles.
type cutFeed struct {
	h, before uint64
	occ       []Occurrence
	hists     []uint64
}

func (c *cutFeed) FeedBlock(*interp.TimingPacket, int, []int64) {}
func (c *cutFeed) NoteBranch(taken bool)                        { c.h = c.h<<1 | b2u(taken) }
func (c *cutFeed) EndPath(int64) {
	c.occ = append(c.occ, Occurrence{})
	c.hists = append(c.hists, c.before)
	c.before = c.h
}

// captureLive captures f as the pipeline does, and lists every
// occurrence's history from a live run of f on a copy of memory.
func captureLive(t *testing.T, name string, f *ir.Function, args, memory []uint64) (*Trace, []uint64) {
	t.Helper()
	_, hists, err := captureCut(t, f, args, slices.Clone(memory), 0)
	if err != nil {
		t.Fatalf("%s: live run: %v", name, err)
	}
	tr, err := Capture(nil, f, args, memory, DefaultConfig())
	if err != nil {
		t.Fatalf("%s: capture: %v", name, err)
	}
	return tr, hists
}

// captureCut runs f exactly as Capture snapshots it, but keeps what a run
// stopped by a step limit or a trap leaves: the occurrences completed
// before it stopped, their histories, and a profile whose counts include
// the partial path it stopped in.
func captureCut(t *testing.T, f *ir.Function, args, memory []uint64, maxSteps int64) (*Trace, []uint64, error) {
	t.Helper()
	am := pm.NewManager()
	c, err := profile.NewCollector(am, f, true)
	if err != nil {
		t.Fatal(err)
	}
	feed := &cutFeed{}
	_, runErr := c.RunTimed(args, memory, interp.PlanOpts{MaxSteps: maxSteps, Timing: feed})
	fp, err := c.Finish()
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Profile: fp, Occ: feed.occ, RunCycles: runCycles(fp.Runs, feed.occ), hist: rankHists(fp), AM: am}
	return tr, feed.hists, runErr
}

// Loop shapes the workloads and irgen never produce: their back edges are
// unconditional latches, so no path there ends in a conditional branch.
// bottomSrc's loop is bottom-tested, its back edge a condbr, and its even
// iterations load the word at the loop index, so a short memory traps
// partway through a path. parallelSrc's back edge is a condbr whose two
// targets are the loop header, which therefore has no phi: the loop
// counter lives in memory word 0.
const (
	bottomSrc = `func @bottom(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [tail: r9]
  r4 = const.i64 1
  r5 = and r3, r4
  condbr r5, %odd, %even
odd:
  br %tail
even:
  r6 = load.i64 r3
  br %tail
tail:
  r8 = const.i64 1
  r9 = add r3, r8
  r7 = cmp.lt r9, r1
  condbr r7, %head, %exit
exit:
  ret r9
}
`
	parallelSrc = `func @par(i64) {
entry:
  br %head
head:
  r2 = const.i64 0
  r3 = load.i64 r2
  r4 = cmp.lt r3, r1
  condbr r4, %body, %exit
body:
  r7 = const.i64 1
  r8 = add r3, r7
  store.i64 r2, r8
  r5 = and r3, r7
  condbr r5, %head, %head
exit:
  ret r3
}
`
)

// TestDerivedCountsMatchCaptureLoopShapes covers paths that end in a
// conditional back edge, whose branch shifts into the history after the
// snapshot of the occurrence it ends.
func TestDerivedCountsMatchCaptureLoopShapes(t *testing.T) {
	for _, src := range []string{bottomSrc, parallelSrc} {
		f, err := ir.ParseFunction(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []uint64{1, 2, 5, 70, 200} {
			name := fmt.Sprintf("%s(%d)", f.Name, n)
			tr, hists := captureLive(t, name, f, []uint64{n}, make([]uint64, 256))
			assertDerivedMatchesCaptured(t, name, f, tr, hists)
		}
	}
}

// TestDerivedCountsMatchCaptureCutShort covers runs a step limit or a trap
// stops partway through a path, whose partial tail the codec stores.
func TestDerivedCountsMatchCaptureCutShort(t *testing.T) {
	tails := 0
	// check requires runErr to be want (any error when want is nil).
	check := func(name string, f *ir.Function, tr *Trace, hists []uint64, runErr, want error) {
		t.Helper()
		if runErr == nil || want != nil && !errors.Is(runErr, want) {
			t.Fatalf("%s: run error %v, want %v", name, runErr, want)
		}
		if assertDerivedMatchesCaptured(t, name, f, tr, hists) > 0 {
			tails++
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		p := irgen.Generate(seed, irgen.Config{})
		for _, limit := range []int64{1, 2, 3, 7, 50, 1000, 5000} {
			tr, hists, runErr := captureCut(t, p.F, []uint64{interp.IBits(seed)}, p.NewMem(), limit)
			if runErr == nil {
				continue // the program finished within the limit
			}
			check(fmt.Sprintf("seed %d limit %d", seed, limit), p.F, tr, hists, runErr, interp.ErrStepLimit)
		}
	}
	for _, name := range []string{"164.gzip", "186.crafty", "458.sjeng"} {
		f, args, memory := inlined(t, workloads.ByName(name), 0)
		for _, limit := range []int64{10_007, 100_003} {
			tr, hists, runErr := captureCut(t, f, args, append([]uint64(nil), memory...), limit)
			check(fmt.Sprintf("%s limit %d", name, limit), f, tr, hists, runErr, interp.ErrStepLimit)
		}
	}
	for _, src := range []string{bottomSrc, parallelSrc} {
		f, err := ir.ParseFunction(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int64{3, 20, 101, 500} {
			tr, hists, runErr := captureCut(t, f, []uint64{100}, make([]uint64, 256), limit)
			check(fmt.Sprintf("%s limit %d", f.Name, limit), f, tr, hists, runErr, interp.ErrStepLimit)
		}
	}
	f, err := ir.ParseFunction(bottomSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{0, 1, 2, 7, 8} {
		tr, hists, runErr := captureCut(t, f, []uint64{100}, make([]uint64, words), 0)
		check(fmt.Sprintf("trap with %d words", words), f, tr, hists, runErr, nil)
	}
	if tails == 0 {
		t.Fatal("no cut-short run left a partial path")
	}
}
