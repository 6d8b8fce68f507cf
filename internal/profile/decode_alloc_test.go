package profile_test

import (
	"runtime"
	"testing"
	"unsafe"

	"needle/internal/passes"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/workloads"
)

// Allowances of TestFromDataBytesPerBlock beyond the 4 bytes of each
// decoded block's index in the arena.
const (
	// pathBytes is a path's record, its slot in the ranked table and its
	// ID's place in the sorted copy the duplicate check makes.
	pathBytes = int(unsafe.Sizeof(profile.Path{})) + 8 + 8
	// funcBlockBytes covers the tables sized by the function rather than
	// by its paths (the DAG, the per-block sums, the successor table, the
	// block and edge counts): 465 bytes per block of 186.crafty, 252 of
	// 197.parser, measured with Go 1.24 on linux/amd64.
	funcBlockBytes = 512
)

// TestFromDataBytesPerBlock pins what rehydrating a stored profile
// allocates, averaged over repeated decodes on one analysis manager, on
// 186.crafty (241k path blocks in 6,897 paths) and 197.parser (6 paths):
// at most 4 bytes per decoded block, the block arena's int32 index, plus
// pathBytes per path and funcBlockBytes per block of the function. An
// arena of 8-byte block pointers (4 more bytes a block, 965 kB on crafty),
// or a map from path ID to path (about 26 bytes a path, 177 kB), puts
// crafty's decode over the bound, which it meets by 15 kB.
func TestFromDataBytesPerBlock(t *testing.T) {
	for _, name := range []string{"186.crafty", "197.parser"} {
		raw, args, mem := workloads.ByName(name).Instance(0)
		f, err := passes.InlineAll(raw)
		if err != nil {
			t.Fatal(err)
		}
		am := pm.NewManager()
		fp, err := profile.CollectFunction(am, f, args, mem, true, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := fp.Data()
		if err != nil {
			t.Fatal(err)
		}
		blocks := 0
		for _, p := range fp.Paths {
			blocks += len(p.Blocks)
		}
		if _, err := profile.FromData(am, f, d); err != nil { // warms am
			t.Fatal(err)
		}
		const n = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			if _, err := profile.FromData(am, f, d); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := int(after.TotalAlloc-before.TotalAlloc) / n
		limit := 4*blocks + pathBytes*len(fp.Paths) + funcBlockBytes*len(f.Blocks)
		if got > limit {
			t.Errorf("%s: a decode of %d paths of %d blocks (function of %d blocks) allocates %d bytes, over the %d-byte bound",
				name, len(fp.Paths), blocks, len(f.Blocks), got, limit)
		}
	}
}
