// Quickstart: the complete Needle flow on a small hand-built kernel.
//
// It builds a dot-product-with-clipping loop in the IR, profiles its
// Ball-Larus paths, ranks them by weight, extracts the hottest path into a
// software frame, and estimates the CGRA offload of one invocation —
// everything Figure 1's Step 1 and Step 2 do, in ~100 lines.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"needle/internal/cgra"
	"needle/internal/frame"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/profile"
	"needle/internal/region"
)

// buildKernel constructs:
//
//	for i in 0..n-1 {
//	    v := a[i] * b[i]
//	    if v > 100 { v = 100 }       // clipping, rarely taken
//	    sum += v
//	}
func buildKernel() *ir.Function {
	b := ir.NewBuilder("dot_clip", ir.I64, ir.I64, ir.I64)
	n, aBase, bBase := b.Param(0), b.Param(1), b.Param(2)
	zero := b.ConstI(0)
	one := b.ConstI(1)

	head := b.NewBlock("head")
	body := b.NewBlock("body")
	clip := b.NewBlock("clip")
	join := b.NewBlock("join")
	exit := b.NewBlock("exit")

	entry := b.Block()
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi(ir.I64)
	sum := b.Phi(ir.I64)
	b.CondBr(b.CmpLT(i, n), body, exit)

	b.SetBlock(body)
	av := b.Load(ir.I64, b.Add(aBase, i))
	bv := b.Load(ir.I64, b.Add(bBase, i))
	v := b.Mul(av, bv)
	b.CondBr(b.CmpGT(v, b.ConstI(100)), clip, join)

	b.SetBlock(clip)
	clipped := b.ConstI(100)
	b.Br(join)

	b.SetBlock(join)
	vj := b.Phi(ir.I64)
	b.AddIncoming(vj, body, v)
	b.AddIncoming(vj, clip, clipped)
	sum2 := b.Add(sum, vj)
	i2 := b.Add(i, one)
	b.Br(head)

	b.AddIncoming(i, entry, zero)
	b.AddIncoming(i, join, i2)
	b.AddIncoming(sum, entry, zero)
	b.AddIncoming(sum, join, sum2)

	b.SetBlock(exit)
	b.Ret(sum)
	return b.MustFinish()
}

func main() {
	f := buildKernel()
	fmt.Println("=== the kernel in textual IR ===")
	fmt.Println(ir.Print(f))

	// Input: values 0..63, so a[i]*b[i] > 100 for i >= 11 — a biased branch.
	mem := make([]uint64, 128)
	for i := 0; i < 64; i++ {
		mem[i] = interp.IBits(int64(i))
		mem[64+i] = interp.IBits(int64(i % 13))
	}

	// Step 1: profile Ball-Larus paths.
	fp, err := profile.CollectFunction(nil, f,
		[]uint64{interp.IBits(64), interp.IBits(0), interp.IBits(64)}, mem, true, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("=== path profile: %d executed paths, %d dynamic instructions ===\n",
		fp.NumExecutedPaths(), fp.TotalWeight)
	for rank, p := range fp.TopK(5) {
		var blocks []string
		for _, blk := range p.Blocks {
			blocks = append(blocks, f.Blocks[blk].Name)
		}
		fmt.Printf("  #%d  freq=%-4d ops=%-3d coverage=%5.1f%%  %s\n",
			rank+1, p.Freq, p.Ops, p.Coverage(fp)*100, strings.Join(blocks, " > "))
	}

	// Step 2: extract the hottest path into a software frame.
	hot := fp.HottestPath()
	fr, err := frame.Build(nil, region.FromPath(f, hot), frame.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== software frame of the hottest path ===\n")
	fmt.Printf("dataflow ops: %d  guards: %d  phis cancelled: %d\n",
		fr.NumOps(), fr.Guards, fr.Cancelled)
	fmt.Printf("live-in: %v  live-out: %v\n", fr.LiveIn, fr.LiveOut)
	fmt.Printf("undo-log bookkeeping ops: %d (for %d stores)\n", fr.UndoOps, fr.Stores)
	fmt.Printf("critical path: %d ops  ->  dataflow ILP %.1f\n", fr.CriticalPath(), fr.ILP())

	// Step 3: map onto the Table V CGRA.
	sched := cgra.Schedule(fr, cgra.DefaultConfig())
	fmt.Printf("\n=== CGRA mapping ===\n")
	fmt.Printf("one invocation: %d cycles (transfer %d+%d, dataflow %d)\n",
		sched.InvokeCycles(), sched.TransferIn, sched.TransferOut, sched.DataflowCycles)
	fmt.Printf("pipelined initiation interval: %d cycles (recurrence %d, resources %d)\n",
		sched.II, sched.RecurrenceII, sched.ResourceII)
	fmt.Printf("energy: %.0f pJ per executed op (host front-end elided)\n", sched.OpPJ)
}
