package spec

import (
	"slices"
	"testing"
	"testing/quick"

	"needle/internal/frame"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/oracle"
	"needle/internal/profile"
	"needle/internal/region"
)

// storeThenBranchSrc stores an incremented value before a data-dependent
// branch that can leave the loop: a failing invocation has externally
// visible state to revert.
const storeThenBranchSrc = `func @stb(i64, i64) {
entry:
  r3 = const.i64 0
  br %head
head:
  r4 = phi.i64 [entry: r3] [latch: r5]
  r6 = cmp.lt r4, r2
  condbr r6, %body, %exit
body:
  r7 = add r1, r4
  r8 = load.i64 r7
  r9 = const.i64 1
  r10 = add r8, r9
  store.i64 r7, r10
  r11 = const.i64 100
  r12 = cmp.lt r8, r11
  condbr r12, %latch, %abort
abort:
  ret r8
latch:
  r5 = add r4, r9
  br %head
exit:
  ret r4
}
`

func buildHotFrame(t testing.TB, mem []uint64) (*ir.Function, *frame.Frame) {
	t.Helper()
	f, err := ir.ParseFunction(storeThenBranchSrc)
	if err != nil {
		t.Fatal(err)
	}
	work := make([]uint64, len(mem))
	copy(work, mem)
	fp, err := profile.CollectFunction(nil, f,
		[]uint64{interp.IBits(0), interp.IBits(int64(len(mem)))}, work, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	hot := fp.HottestPath()
	fr, err := frame.Build(nil, region.FromPath(f, hot), frame.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f, fr
}

// seedRegs prepares a register file as if the interpreter had just executed
// the entry block: params set, r3 = 0.
func seedRegs(f *ir.Function, base, n int64) []uint64 {
	regs := make([]uint64, len(f.RegType))
	regs[1] = interp.IBits(base)
	regs[2] = interp.IBits(n)
	regs[3] = 0
	return regs
}

func TestExecuteFrameSuccessCommitsStores(t *testing.T) {
	mem := make([]uint64, 8) // all zeros: branch to latch always taken
	f, fr := buildHotFrame(t, mem)
	regs := seedRegs(f, 0, 8)
	out, err := ExecuteFrame(fr, regs, mem, f.Entry())
	if err != nil {
		t.Fatalf("ExecuteFrame: %v", err)
	}
	if !out.Success {
		t.Fatalf("invocation failed at %v", out.FailedAt)
	}
	if out.Stores != 1 {
		t.Fatalf("stores = %d, want 1", out.Stores)
	}
	if interp.I(mem[0]) != 1 {
		t.Fatalf("mem[0] = %d, want 1 (committed)", interp.I(mem[0]))
	}
}

func TestExecuteFrameFailureRollsBack(t *testing.T) {
	mem := make([]uint64, 8)
	f, fr := buildHotFrame(t, mem)

	// Poison element 0 so the guarded branch aborts AFTER the store ran.
	mem[0] = interp.IBits(500)
	snapshot := make([]uint64, len(mem))
	copy(snapshot, mem)

	regs := seedRegs(f, 0, 8)
	out, err := ExecuteFrame(fr, regs, mem, f.Entry())
	if err != nil {
		t.Fatalf("ExecuteFrame: %v", err)
	}
	if out.Success {
		t.Fatal("invocation should have failed")
	}
	if out.FailedAt == nil || out.FailedAt.Name != "body" {
		t.Fatalf("failed at %v, want body", out.FailedAt)
	}
	if out.Stores != 1 {
		t.Fatalf("stores before failure = %d, want 1", out.Stores)
	}
	for i := range mem {
		if mem[i] != snapshot[i] {
			t.Fatalf("mem[%d] = %d not rolled back to %d", i, mem[i], snapshot[i])
		}
	}
}

// TestExecuteFrameRollbackProperty: for arbitrary memory contents, a failed
// invocation must leave memory bit-identical to the pre-invocation state.
func TestExecuteFrameRollbackProperty(t *testing.T) {
	base := make([]uint64, 8)
	f, fr := buildHotFrame(t, base)
	check := func(vals [8]uint16, poison uint8) bool {
		mem := make([]uint64, 8)
		for i, v := range vals {
			mem[i] = interp.IBits(int64(v))
		}
		mem[0] = interp.IBits(int64(poison) + 100) // force failure
		snapshot := make([]uint64, len(mem))
		copy(snapshot, mem)
		regs := seedRegs(f, 0, 8)
		out, err := ExecuteFrame(fr, regs, mem, f.Entry())
		if err != nil || out.Success {
			return false
		}
		for i := range mem {
			if mem[i] != snapshot[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUndoLogRollbackOrder(t *testing.T) {
	mem := []uint64{1, 2, 3}
	var log UndoLog
	// Two writes to the same address: rollback must restore the first old
	// value, exercising reverse-order restoration.
	log.Record(1, mem[1])
	mem[1] = 50
	log.Record(1, mem[1])
	mem[1] = 60
	log.Record(2, mem[2])
	mem[2] = 70
	if log.Len() != 3 {
		t.Fatalf("len = %d", log.Len())
	}
	log.Rollback(mem)
	if mem[1] != 2 || mem[2] != 3 {
		t.Fatalf("rollback wrong: %v", mem)
	}
	if log.Len() != 0 {
		t.Fatal("log not cleared after rollback")
	}
}

func TestUndoLogIgnoresOutOfRangeOnRollback(t *testing.T) {
	mem := []uint64{1}
	var log UndoLog
	log.Record(5, 99) // bogus address must not panic
	log.Record(0, mem[0])
	mem[0] = 7
	log.Rollback(mem)
	if mem[0] != 1 {
		t.Fatal("valid entry not restored")
	}
}

func TestAlwaysPredictor(t *testing.T) {
	var p Always
	if !p.Predict(0) || !p.Predict(^uint64(0)) {
		t.Fatal("Always must always predict invoke")
	}
	p.Update(0, false) // no-op, must not panic
	if p.Name() != "always" {
		t.Fatal("name")
	}
}

func TestHistoryPredictorLearns(t *testing.T) {
	h := NewHistory(4)
	histBad := uint64(0b1010)
	histGood := uint64(0b0101)
	// Train: histBad always fails, histGood always succeeds.
	for i := 0; i < 8; i++ {
		h.Update(histBad, false)
		h.Update(histGood, true)
	}
	if h.Predict(histBad) {
		t.Error("history predictor failed to learn a failing pattern")
	}
	if !h.Predict(histGood) {
		t.Error("history predictor unlearned a succeeding pattern")
	}
	// Saturation: more updates must not overflow.
	for i := 0; i < 100; i++ {
		h.Update(histGood, true)
		h.Update(histBad, false)
	}
	if !h.Predict(histGood) || h.Predict(histBad) {
		t.Error("saturating counters misbehaved")
	}
	// Recovery: a failing pattern that starts succeeding is re-learned.
	for i := 0; i < 4; i++ {
		h.Update(histBad, true)
	}
	if !h.Predict(histBad) {
		t.Error("history predictor cannot recover")
	}
}

func TestHistoryPredictorIndexMasking(t *testing.T) {
	h := NewHistory(2)
	// Indices 0b00 and 0b100 alias (2-bit table).
	h.Update(0b00, false)
	h.Update(0b00, false)
	if h.Predict(0b100) {
		t.Error("aliased entries should share state")
	}
}

// TestHistoryStep drives a table through Step and a plain array of 2-bit
// saturating counters through one sequence of histories and outcomes, and
// demands the same predictions and counters throughout, Predict agreeing
// with Step; saturated must say exactly when another step of the same
// outcome on the entry would invoke alike and leave it as it is.
func TestHistoryStep(t *testing.T) {
	for _, bits := range []uint{1, 2, 4, 12, 20} {
		h := NewHistory(bits)
		ref := make([]int8, 1<<bits)
		for i := range ref {
			ref[i] = 3
		}
		x := uint64(88172645463325252)
		for i := 0; i < 5000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			hist, success := x>>8, x&7 < 5
			e := hist & (1<<bits - 1)
			want := ref[e] >= 3
			if success {
				ref[e] = min(ref[e]+1, 3)
			} else {
				ref[e] = max(ref[e]-1, 0)
			}
			if p := h.Predict(hist); p != want {
				t.Fatalf("bits %d, step %d: Predict %v, want %v", bits, i, p, want)
			}
			got, saturated := h.Step(hist, success)
			if got != want {
				t.Fatalf("bits %d, step %d: Step invoked %v, want %v", bits, i, got, want)
			}
			if stays := ref[e] == 3 && success || ref[e] == 0 && !success; saturated != stays {
				t.Fatalf("bits %d, step %d: saturated %v with counter %d after outcome %v", bits, i, saturated, ref[e], success)
			}
			if !slices.Equal(h.table, ref) {
				t.Fatalf("bits %d, step %d: counters differ from the reference", bits, i)
			}
		}
	}
}

// TestNewHistoriesAreFreshAndApart: every table NewHistories carves starts
// at the invocation threshold, has NewHistory's size and mask, and trains
// apart from the others.
func TestNewHistoriesAreFreshAndApart(t *testing.T) {
	for _, bits := range []uint{0, 1, 3, 12, 20, 21} {
		hs := NewHistories(5, bits)
		one := NewHistory(bits)
		for i := range hs {
			h := &hs[i]
			if h.Mask() != one.Mask() || len(h.table) != len(one.table) || cap(h.table) != len(h.table) {
				t.Fatalf("bits %d, table %d: mask %#x, %d entries (cap %d), want mask %#x, %d entries",
					bits, i, h.Mask(), len(h.table), cap(h.table), one.Mask(), len(one.table))
			}
			if !slices.Equal(h.table, one.table) {
				t.Fatalf("bits %d, table %d: does not start at the invocation threshold", bits, i)
			}
		}
		for range 3 {
			hs[2].Update(1, false)
		}
		for i := range hs {
			if got := hs[i].Predict(1); got != (i != 2) {
				t.Fatalf("bits %d: table %d predicts %v after table 2 was trained to decline", bits, i, got)
			}
		}
	}
	if hs := NewHistories(0, 12); len(hs) != 0 {
		t.Fatalf("NewHistories(0) made %d tables", len(hs))
	}
}

func TestOraclePredictor(t *testing.T) {
	var o Oracle
	o.SetNext(true)
	if !o.Predict(0) {
		t.Fatal("oracle should follow SetNext(true)")
	}
	o.SetNext(false)
	if o.Predict(0) {
		t.Fatal("oracle should follow SetNext(false)")
	}
}

func TestHistoryTracker(t *testing.T) {
	f, err := ir.ParseFunction(storeThenBranchSrc)
	if err != nil {
		t.Fatal(err)
	}
	ht := &oracle.HistoryTracker{}
	mem := make([]uint64, 4)
	if _, err := oracle.Run(f, []uint64{interp.IBits(0), interp.IBits(4)}, mem, ht.Hooks(), 0); err != nil {
		t.Fatal(err)
	}
	// 4 iterations: head taken x4 (1), body latch-taken x4 (1), final head
	// not-taken (0). History = ...11111111 0 => low bit must be 0, and the
	// prior 8 bits all 1.
	if ht.H&1 != 0 {
		t.Fatalf("history = %b, want trailing 0 (loop exit)", ht.H)
	}
	if (ht.H>>1)&0xff != 0xff {
		t.Fatalf("history = %b, want 8 taken bits before exit", ht.H)
	}
}
