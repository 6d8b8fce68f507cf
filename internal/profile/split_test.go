package profile_test

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"needle/internal/corpus"
	"needle/internal/passes"
	"needle/internal/pm"
	"needle/internal/profile"
)

// arenaOffsets returns each ranked path's block window as an offset into
// the arena the windows share, in pointers.
func arenaOffsets(fp *profile.FunctionProfile) []uintptr {
	base := ^uintptr(0)
	for _, p := range fp.Paths {
		base = min(base, uintptr(unsafe.Pointer(unsafe.SliceData(p.Blocks))))
	}
	offs := make([]uintptr, len(fp.Paths))
	for i, p := range fp.Paths {
		offs[i] = (uintptr(unsafe.Pointer(unsafe.SliceData(p.Blocks))) - base) / unsafe.Sizeof(p.Blocks[0])
	}
	return offs
}

// assertSameProfile demands two profiles of one function equal field for
// field, and with sameArena every path's blocks at the same place in its
// arena.
func assertSameProfile(t *testing.T, what string, one, split *profile.FunctionProfile, sameArena bool) {
	t.Helper()
	if !reflect.DeepEqual(one, split) {
		t.Fatalf("%s: one worker and four give different profiles", what)
	}
	if a, b := arenaOffsets(one), arenaOffsets(split); sameArena && !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: block windows at %v with one worker, %v with four", what, a, b)
	}
}

// TestSplitDecodeMatchesSerial finishes the profile of every corpus program
// (the 29 workloads, the irgen programs and the checked-in .nir programs),
// and rehydrates it from its stored trace, once on one worker and once
// split across four whatever the path count, and demands identical
// profiles, the rehydrated ones down to their arena layout. Data naming two undecodable paths, in the first and last of the
// four record ranges, and data listing one path twice must fail with the
// serial error.
func TestSplitDecodeMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	decoded, corrupted := 0, 0
	for _, p := range corpus.Programs(t) {
		f, err := passes.InlineAll(p.F)
		if err != nil {
			t.Fatalf("%s: InlineAll: %v", p.Name, err)
		}
		am := pm.NewManager()
		c, err := profile.NewCollector(am, f, true)
		if err != nil {
			t.Fatalf("%s: NewCollector: %v", p.Name, err)
		}
		if _, err := c.Run(append([]uint64(nil), p.Args...), append([]uint64(nil), p.Memory...), 1<<22); err != nil {
			continue // a faulting program leaves no profile
		}
		one, err := c.FinishFloor(math.MaxInt)
		if err != nil {
			t.Fatalf("%s: Finish: %v", p.Name, err)
		}
		split, err := c.FinishFloor(1)
		if err != nil {
			t.Fatalf("%s: split Finish: %v", p.Name, err)
		}
		// Finish lays paths out in the collector's record order, which is a
		// map's iteration order on a sparse path-ID space, so only the
		// rehydration's layout is compared.
		assertSameProfile(t, p.Name+" Finish", one, split, false)

		d, err := one.Data()
		if err != nil {
			t.Fatalf("%s: Data: %v", p.Name, err)
		}
		if one, err = profile.FromDataFloor(am, f, d, math.MaxInt); err != nil {
			t.Fatalf("%s: FromData: %v", p.Name, err)
		}
		if split, err = profile.FromDataFloor(am, f, d, 1); err != nil {
			t.Fatalf("%s: split FromData: %v", p.Name, err)
		}
		assertSameProfile(t, p.Name+" FromData", one, split, true)
		decoded++

		n := len(d.Paths)
		if n < 8 {
			continue
		}
		bad := one.DAG.NumPaths()
		for _, corrupt := range []func(ids []int64){
			func(ids []int64) { ids[1], ids[n-2] = bad+1, bad+2 },
			func(ids []int64) { ids[n-1] = ids[2] },
		} {
			cd := *d
			cd.Paths = append([]int64(nil), d.Paths...)
			corrupt(cd.Paths)
			_, want := profile.FromDataFloor(am, f, &cd, math.MaxInt)
			_, got := profile.FromDataFloor(am, f, &cd, 1)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Fatalf("%s: corrupt data fails with %v on four workers, %v on one", p.Name, got, want)
			}
		}
		corrupted++
	}
	if decoded < 29+150 || corrupted < 29 {
		t.Fatalf("only %d corpus programs decoded, %d corrupted", decoded, corrupted)
	}
}
