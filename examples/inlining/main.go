// Inlining: why Needle profiles the *fully inlined* hot function.
//
// The paper's Table I notes that its predication statistics differ from
// prior work "because of aggressive inlining of call sequences": analyses
// that stop at call boundaries miss the control flow hiding inside callees.
// This example builds a hot loop that calls two helpers, profiles it before
// and after inlining, and shows how the real path structure (and the
// braid) only becomes visible once the calls are gone.
//
// Run with: go run ./examples/inlining
package main

import (
	"fmt"
	"log"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/passes"
	"needle/internal/profile"
	"needle/internal/region"
)

const moduleSrc = `func @classify(i64) {
entry:
  r2 = const.i64 16
  r3 = rem r1, r2
  r4 = const.i64 3
  r5 = cmp.lt r3, r4
  condbr r5, %small, %big
small:
  r6 = mul r3, r3
  ret r6
big:
  r7 = const.i64 100
  r8 = add r3, r7
  ret r8
}

func @weight(i64, i64) {
entry:
  r3 = cmp.gt r1, r2
  condbr r3, %hi, %lo
hi:
  r4 = sub r1, r2
  ret r4
lo:
  r5 = const.i64 1
  ret r5
}

func @hot(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [latch: r4]
  r5 = phi.i64 [entry: r2] [latch: r6]
  r7 = cmp.lt r3, r1
  condbr r7, %body, %exit
body:
  r8 = call.i64 @classify r3
  r9 = const.i64 50
  r10 = call.i64 @weight r8 r9
  r6 = add r5, r10
  br %latch
latch:
  r11 = const.i64 1
  r4 = add r3, r11
  br %head
exit:
  ret r5
}
`

func summarize(label string, f *ir.Function) {
	fp, err := profile.CollectFunction(nil, f, []uint64{interp.IBits(600)}, nil, true, 0)
	if err != nil {
		log.Fatal(err)
	}
	branches := 0
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpCondBr {
			branches++
		}
	}
	braids := region.BuildBraids(fp, 0)
	top := braids[0]
	fmt.Printf("%-16s blocks=%-3d branches=%-2d executed-paths=%-3d hot-path-ops=%-3d braid: %d paths merged, %d IFs\n",
		label, len(f.Blocks), branches, fp.NumExecutedPaths(),
		fp.HottestPath().Ops, top.MergedPathCount(), top.IFs)
}

func main() {
	m, err := ir.Parse(moduleSrc)
	if err != nil {
		log.Fatal(err)
	}
	hot := m.Func("hot")

	// Semantics are identical before and after inlining.
	before, err := interp.Exec(interp.BuildPlan(hot), []uint64{interp.IBits(600)}, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	inlined, err := passes.InlineAll(hot)
	if err != nil {
		log.Fatal(err)
	}
	passes.Optimize(inlined)
	after, err := interp.Exec(interp.BuildPlan(inlined), []uint64{interp.IBits(600)}, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hot(600) = %d before inlining, %d after (%d -> %d dynamic instructions)\n\n",
		interp.I(before.Ret), interp.I(after.Ret), before.Steps, after.Steps)

	fmt.Println("what the profiler sees:")
	summarize("with calls", hot)
	summarize("fully inlined", inlined)

	fmt.Println("\nwith calls, the loop body is one opaque path: the branches inside")
	fmt.Println("classify() and weight() are invisible to region formation. Inlining")
	fmt.Println("exposes them, the path profile splits into the real variants, and")
	fmt.Println("the braid can merge them with internal IFs — which is why Needle")
	fmt.Println("(and this pipeline's core.Analyzer) inlines before profiling.")
}
