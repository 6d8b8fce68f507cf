package sim

import (
	"math"
	"runtime"
	"testing"

	"needle/internal/corpus"
	"needle/internal/passes"
	"needle/internal/region"
)

// TestSplitReplayMatchesSerial replays the candidate table of every corpus
// program (the 29 workloads, the irgen programs and the checked-in .nir
// programs) once on one worker and once split across four, whatever the
// trace's length, and demands the same results bit for bit: a lane must
// not depend on which worker runs it or on which lanes share that worker.
func TestSplitReplayMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := DefaultConfig()
	cfg.MaxSteps = 1 << 22
	replayed := 0
	for _, p := range corpus.Programs(t) {
		f, err := passes.InlineAll(p.F)
		if err != nil {
			t.Fatalf("%s: InlineAll: %v", p.Name, err)
		}
		tr, err := Capture(nil, f, append([]uint64(nil), p.Args...), append([]uint64(nil), p.Memory...), cfg)
		if err != nil || len(tr.Profile.Paths) == 0 {
			continue // a faulting program leaves no trace to replay
		}
		braids := region.BuildBraids(tr.Profile, 0)
		c, err := NewCandidates(tr, braids, hotFrame(tr, braids, cfg), cfg, 3, 0.1)
		if err != nil {
			continue
		}
		one := evaluate(tr, c.lanes(), cfg, math.MaxInt)
		split := evaluate(tr, c.lanes(), cfg, 1)
		for i := range one {
			if !sameResult(one[i], split[i]) {
				t.Fatalf("%s lane %d: one worker %+v, four %+v", p.Name, i, one[i], split[i])
			}
		}
		replayed++
	}
	if replayed < 29+150 {
		t.Fatalf("only %d corpus programs replayed", replayed)
	}
}
