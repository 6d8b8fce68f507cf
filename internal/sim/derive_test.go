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
// history. It returns the stored partial tail's length.
func assertDerivedMatchesCaptured(t *testing.T, name string, f *ir.Function, tr *Trace) int {
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
		tr, err := Capture(nil, f, args, memory, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		assertDerivedMatchesCaptured(t, w.Name, f, tr)
	}
}

// TestDerivedCountsMatchCaptureRandomPrograms covers 300 generated programs.
func TestDerivedCountsMatchCaptureRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		p := irgen.Generate(seed, irgen.Config{})
		tr, err := Capture(nil, p.F, []uint64{interp.IBits(seed)}, p.NewMem(), DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: capture: %v", seed, err)
		}
		assertDerivedMatchesCaptured(t, fmt.Sprintf("seed %d", seed), p.F, tr)
	}
}

// cutFeed snapshots the history register as Capture does, at every path
// completion before the path-ending branch shifts in, and models no cycles.
type cutFeed struct {
	h, before uint64
	occ       []Occurrence
}

func (c *cutFeed) FeedBlock(*interp.TimingPacket, int, []int64) {}
func (c *cutFeed) NoteBranch(taken bool)                        { c.h = c.h<<1 | b2u(taken) }
func (c *cutFeed) EndPath(int64) {
	c.occ = append(c.occ, Occurrence{Hist: c.before})
	c.before = c.h
}

// captureCut runs f exactly as Capture snapshots it, but keeps what a run
// stopped by a step limit or a trap leaves: the occurrences completed
// before it stopped, and a profile whose counts include the partial path it
// stopped in.
func captureCut(t *testing.T, f *ir.Function, args, memory []uint64, maxSteps int64) (*Trace, error) {
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
	return &Trace{Profile: fp, Occ: feed.occ, RunCycles: runSums(fp.Runs, feed.occ), AM: am}, runErr
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
			tr, err := Capture(nil, f, []uint64{n}, make([]uint64, 256), DefaultConfig())
			if err != nil {
				t.Fatalf("%s(%d): %v", f.Name, n, err)
			}
			assertDerivedMatchesCaptured(t, fmt.Sprintf("%s(%d)", f.Name, n), f, tr)
		}
	}
}

// TestDerivedCountsMatchCaptureCutShort covers runs a step limit or a trap
// stops partway through a path, whose partial tail the codec stores.
func TestDerivedCountsMatchCaptureCutShort(t *testing.T) {
	tails := 0
	// check requires runErr to be want (any error when want is nil).
	check := func(name string, f *ir.Function, tr *Trace, runErr, want error) {
		t.Helper()
		if runErr == nil || want != nil && !errors.Is(runErr, want) {
			t.Fatalf("%s: run error %v, want %v", name, runErr, want)
		}
		if assertDerivedMatchesCaptured(t, name, f, tr) > 0 {
			tails++
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		p := irgen.Generate(seed, irgen.Config{})
		for _, limit := range []int64{1, 2, 3, 7, 50, 1000, 5000} {
			tr, runErr := captureCut(t, p.F, []uint64{interp.IBits(seed)}, p.NewMem(), limit)
			if runErr == nil {
				continue // the program finished within the limit
			}
			check(fmt.Sprintf("seed %d limit %d", seed, limit), p.F, tr, runErr, interp.ErrStepLimit)
		}
	}
	for _, name := range []string{"164.gzip", "186.crafty", "458.sjeng"} {
		f, args, memory := inlined(t, workloads.ByName(name), 0)
		for _, limit := range []int64{10_007, 100_003} {
			tr, runErr := captureCut(t, f, args, append([]uint64(nil), memory...), limit)
			check(fmt.Sprintf("%s limit %d", name, limit), f, tr, runErr, interp.ErrStepLimit)
		}
	}
	for _, src := range []string{bottomSrc, parallelSrc} {
		f, err := ir.ParseFunction(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int64{3, 20, 101, 500} {
			tr, runErr := captureCut(t, f, []uint64{100}, make([]uint64, 256), limit)
			check(fmt.Sprintf("%s limit %d", f.Name, limit), f, tr, runErr, interp.ErrStepLimit)
		}
	}
	f, err := ir.ParseFunction(bottomSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []int{0, 1, 2, 7, 8} {
		tr, runErr := captureCut(t, f, []uint64{100}, make([]uint64, words), 0)
		check(fmt.Sprintf("trap with %d words", words), f, tr, runErr, nil)
	}
	if tails == 0 {
		t.Fatal("no cut-short run left a partial path")
	}
}
