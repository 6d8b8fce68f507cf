package sim

import (
	"fmt"
	"slices"
	"testing"

	"needle/internal/ballarus"
	"needle/internal/ir"
	"needle/internal/oracle"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/workloads"
)

// expandHists is the per-occurrence oracle of the replay's history
// derivation: it lists the history every occurrence of runs indexes under
// the per-rank table tab, stepping the register through every occurrence.
func expandHists(tab []rankHist, runs []profile.Run) []uint64 {
	hists := make([]uint64, 0, profile.Occurrences(runs))
	var h, snap uint64
	for j, run := range runs {
		e := &tab[run.Rank]
		shift, self := uint(e.s), uint64(e.self)
		for i := range run.Len {
			hists = append(hists, snap)
			h = h<<e.n | e.bits // a shift by 64 or more clears h
			snap = h
			if i+1 < run.Len {
				h = h<<shift | self
			}
		}
		if e.taken >= 0 && j+1 < len(runs) {
			h = h<<1 | b2u(e.taken == tab[runs[j+1].Rank].first)
		}
	}
	return hists
}

// derivedHists lists every occurrence's history as the replay derives it:
// each run's histories from fillHists, chunk runs at a time, and those
// inside the run by walkHistory's recurrence.
func derivedHists(tr *Trace, chunk int) []uint64 {
	runs := tr.Profile.Runs
	rh := make([]runHist, len(runs))
	var h, snap uint64
	for lo := 0; lo < len(runs); lo += chunk {
		h, snap = fillHists(tr.hist, runs, lo, h, snap, rh[lo:min(lo+chunk, len(runs))])
	}
	var hists []uint64
	for j, run := range runs {
		x, next := rh[j].x0, rh[j].x1
		for range run.Len {
			hists = append(hists, x)
			x, next = next, next<<rh[j].w|rh[j].pw
		}
	}
	return hists
}

// hookedHists runs f on the tree-walking oracle with a Ball-Larus profiler
// and oracle.HistoryTracker, and lists the history register as each path
// occurrence began: the register when the occurrence before it completed,
// before the branch ending that one shifts in. It fails when the run does.
func hookedHists(f *ir.Function, args, memory []uint64, maxSteps int64) ([]uint64, error) {
	dag, err := ballarus.Build(pm.NewManager(), f)
	if err != nil {
		return nil, err
	}
	prof := oracle.NewProfiler(dag)
	hist := &oracle.HistoryTracker{}
	var hists []uint64
	var before uint64
	prof.OnPath = func(int64) {
		hists = append(hists, before)
		before = hist.H
	}
	if _, err := oracle.Run(f, args, memory, oracle.CombineHooks(prof.Hooks(), hist.Hooks()), maxSteps); err != nil {
		return nil, err
	}
	return hists, nil
}

// captureHists captures workload name at size n as capture does, and lists
// every occurrence's history from a hooked run of the same function.
func captureHists(t testing.TB, name string, n int) (*Trace, []uint64) {
	t.Helper()
	tr := capture(t, name, n)
	f, args, memory := inlined(t, workloads.ByName(name), n)
	hists, err := hookedHists(f, args, memory, 0)
	if err != nil {
		t.Fatalf("hooked run of %s: %v", name, err)
	}
	return tr, hists
}

// captureProgramHists captures f on args and memory, and lists every
// occurrence's history from a hooked run on a copy of memory.
func captureProgramHists(t testing.TB, name string, f *ir.Function, args, memory []uint64, cfg Config) (*Trace, []uint64) {
	t.Helper()
	hists, err := hookedHists(f, args, slices.Clone(memory), cfg.MaxSteps)
	if err != nil {
		t.Fatalf("%s: hooked run: %v", name, err)
	}
	tr, err := Capture(nil, f, args, memory, cfg)
	if err != nil {
		t.Fatalf("%s: capture: %v", name, err)
	}
	return tr, hists
}

// assertHistsDerived requires the histories the replay derives for tr, and
// those expandHists lists, to equal want, the histories a run observed.
func assertHistsDerived(t *testing.T, name string, tr *Trace, want []uint64) {
	t.Helper()
	check := func(how string, got []uint64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %s lists %d histories for %d occurrences", name, how, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s: occurrence %d of %d has history %#x, observed %#x", name, how, i, len(want), got[i], want[i])
			}
		}
	}
	check("expandHists", expandHists(tr.hist, tr.Profile.Runs))
	for _, chunk := range []int{1, 3, tile} {
		check(fmt.Sprintf("the replay's derivation, %d runs at a time", chunk), derivedHists(tr, chunk))
	}
}

// flatHists is a history table for n paths that shift nothing in: every
// occurrence's history is 0.
func flatHists(n int) []rankHist {
	tab := make([]rankHist, n)
	for r := range tab {
		tab[r] = rankHist{first: int32(r), taken: -1}
		tab[r].setFull(0)
	}
	return tab
}

// mixedHists is a history table for n paths of every shape: paths that
// shift in no inner branch, one, two or 70 (more than the register holds),
// and that end in no condbr, in a back edge to their own first block or in
// one whose taken arm is the next rank's first block.
func mixedHists(n int) []rankHist {
	tab := make([]rankHist, n)
	for r := range tab {
		e := &tab[r]
		e.first, e.taken = int32(r), -1
		w := [...]int{0, 1, 2, 70}[r%4]
		e.n = uint8(min(w, 64))
		e.bits = uint64(r+1) * 0x9e3779b97f4a7c15 >> (64 - e.n)
		switch r % 3 {
		case 1:
			e.taken, e.s, e.self = e.first, 1, 1
		case 2:
			e.taken, e.s = int32((r+1)%n), 1
		}
		e.setFull(w + int(e.s))
	}
	return tab
}

// TestStableAt pins the analytic stable point (see stableAt) on each shape
// against the histories of one long run, entered with two registers that
// differ in every bit: from the stable point on, every history of a run
// agrees on the low bits with the stable point's, which owes nothing to
// the entry (but on a path that shifts nothing in), and the one before it
// does; and from occurrence ff on every history is full.
func TestStableAt(t *testing.T) {
	tab := mixedHists(12)
	for r := range tab {
		e := &tab[r]
		got := [2][]uint64{expandRun(e, 0, 100), expandRun(e, ^uint64(0), 100)}
		shifts := e.n > 0 || e.s > 0
		if f := int(e.ff); shifts && (got[0][f] != e.full || got[1][f] != e.full || got[0][99] != e.full) {
			t.Fatalf("rank %d: histories %#x, %#x and %#x from occurrence %d, want %#x", r, got[0][f], got[1][f], got[0][99], f, e.full)
		}
		for _, bits := range []uint{1, 4, 12, 20, 64} {
			mask := uint64(1)<<bits - 1
			s := stableAt(e, bits)
			for _, h := range got {
				for i := s; i < 100; i++ {
					if h[i]&mask != h[s]&mask {
						t.Fatalf("rank %d, %d bits: history %d differs from the stable point %d's", r, bits, i, s)
					}
				}
			}
			if !shifts {
				continue
			}
			if got[0][s]&mask != got[1][s]&mask {
				t.Fatalf("rank %d, %d bits: the stable point %d's history depends on the entry", r, bits, s)
			}
			if s > 1 && got[0][s-1]&mask == got[1][s-1]&mask {
				t.Fatalf("rank %d, %d bits: the history before the stable point %d owes nothing to the entry", r, bits, s)
			}
		}
	}
}

// stableAt is the stable point walkHistory finds under a mask of bits
// bits: the first occurrence i with i·max(w, 1) >= bits + s.
func stableAt(e *rankHist, bits uint) int {
	i := 0
	for uint(i)*max(uint(e.n)+uint(e.s), 1) < bits+uint(e.s) {
		i++
	}
	return i
}

// expandRun lists the histories of a run of n occurrences of e's path
// entered with register h and snapshot 0.
func expandRun(e *rankHist, h uint64, n int32) []uint64 {
	shift, self := uint(e.s), uint64(e.self)
	hists := []uint64{0}
	for i := int32(1); i < n; i++ {
		x := h<<e.n | e.bits
		hists = append(hists, x)
		h = x<<shift | self
	}
	return hists
}

// TestFillHistsMatchesExpansion derives the histories of hand-built traces
// of every path shape, in chunks of several sizes, against expandHists.
func TestFillHistsMatchesExpansion(t *testing.T) {
	tab := mixedHists(12)
	for seed := range 20 {
		var ranks []int32
		for j := range 1500 {
			r := int32((j*7 + seed*j/3) % len(tab))
			for range 1 + (j*seed)%9 {
				ranks = append(ranks, r)
			}
		}
		tr := &Trace{Profile: &profile.FunctionProfile{Runs: runsOf(ranks)}, hist: tab}
		assertHistsDerived(t, fmt.Sprintf("seed %d", seed), tr, expandHists(tab, tr.Profile.Runs))
	}
}

// TestHookedHistsMatchLiveFeed: the hooked oracle run and a live run on the
// compiled plan, which tracks the register from the plan's branch feed,
// observe the same histories.
func TestHookedHistsMatchLiveFeed(t *testing.T) {
	f, err := ir.ParseFunction(bottomSrc)
	if err != nil {
		t.Fatal(err)
	}
	hooked, err := hookedHists(f, []uint64{50}, make([]uint64, 256), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, live, err := captureCut(t, f, []uint64{50}, make([]uint64, 256), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(hooked, live) {
		t.Fatalf("hooked histories %x, live %x", hooked, live)
	}
}
