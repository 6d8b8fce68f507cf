package ir_test

import (
	"runtime"
	"testing"
	"unsafe"

	"needle/internal/ir"
	"needle/internal/irgen"
)

// poolShape is the irgen shape of the programs needled ingests in the
// benchmark's serve-nir-cold workload; seed 4 of it is a 186-instruction,
// 4.6 KB program, close to that pool's average.
var poolShape = irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}

// parseAllocsBefore is what Parse allocated on that program before the
// scan-once rewrite (1,141): a strings.Split of the source, per-line
// strings.Fields and operand slices, register and block maps, and one
// allocation per block, instruction and operand list.
const parseAllocsBefore = 1141

func TestParseAllocations(t *testing.T) {
	src := ir.Print(irgen.Generate(4, poolShape).F)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ir.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > parseAllocsBefore/8 {
		t.Errorf("Parse allocates %.0f times, want at most %d", allocs, parseAllocsBefore/8)
	}
	// Bytes, averaged over many parses so that what other goroutines
	// allocate meanwhile is spread thin. With its scratch pooled, a parse
	// of the 4.6 KB program allocates about 23.1 KB, the module and its
	// arenas; 28.6-31.6 KB under -race, which drops a quarter of what is put
	// in a pool. Scratch of its own each time, as before the pool, costs
	// 50.3 KB.
	if b := bytesPerRun(500, func() {
		if _, err := ir.Parse(src); err != nil {
			t.Fatal(err)
		}
	}); b > parseBytesBound {
		t.Errorf("Parse allocates %.0f bytes, want at most %d", b, parseBytesBound)
	}
}

// parseBytesBound is TestParseAllocations' bound on the bytes one parse
// of the 4.6 KB program allocates: its pooled steady state under -race
// plus its spread there.
const parseBytesBound = 36 << 10

// bytesPerRun is the mean of the bytes the process allocates across n
// calls of f, after one call that is not counted.
func bytesPerRun(n int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestParseKeepsNoSource: a parsed function's names are its own, so
// holding the function does not hold the source text.
func TestParseKeepsNoSource(t *testing.T) {
	src := ir.Print(irgen.Generate(4, poolShape).F)
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	inSource := func(s string) bool {
		at := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return len(s) > 0 && at >= lo && at < lo+uintptr(len(src))
	}
	if inSource(f.Name) {
		t.Errorf("function name %q points into the source", f.Name)
	}
	for _, b := range f.Blocks {
		if inSource(b.Name) {
			t.Errorf("block name %q points into the source", b.Name)
		}
	}
}
