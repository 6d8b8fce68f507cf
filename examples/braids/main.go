// Braids: why path profiles beat edge profiles, and what merging paths buys.
//
// This example reproduces the paper's Figure 3 scenario — two sequential
// branches whose outcomes are perfectly anti-correlated — and shows:
//
//  1. the edge-profile Superblock splices together a block sequence that
//     never executes (an "infeasible" superblock);
//  2. the Hyperblock folds in everything and wastes operations;
//  3. Ball-Larus paths identify exactly the two real flows; and
//  4. the Braid merges them into one offload region whose coverage is the
//     sum of both paths, with fewer guards than the two path frames.
//
// Run with: go run ./examples/braids
package main

import (
	"fmt"
	"log"

	"needle/internal/frame"
	"needle/internal/interp"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/workloads"
)

func main() {
	f := workloads.BuildFigure3Kernel()
	fp, err := profile.CollectFunction(nil, f, []uint64{interp.IBits(2000)}, nil, true, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("kernel %s: %d executed paths\n\n", f.Name, fp.NumExecutedPaths())
	for rank, p := range fp.TopK(4) {
		fmt.Printf("path #%d: freq=%-5d coverage=%4.1f%%  blocks:", rank+1, p.Freq, p.Coverage(fp)*100)
		for _, b := range p.Blocks {
			fmt.Printf(" %s", f.Blocks[b].Name)
		}
		fmt.Println()
	}

	// Superblock: grown from the hottest path's entry by edge frequency.
	entry := f.Blocks[fp.HottestPath().Blocks[0]]
	sb := region.BuildSuperblock(fp, entry, 0)
	fmt.Printf("\nsuperblock from %s: %d blocks, feasible=%v\n", entry, len(sb.Blocks), sb.Feasible)
	if !sb.Feasible {
		fmt.Println("  -> the edge profile spliced two anti-correlated branches into a")
		fmt.Println("     sequence that never executes; offloading it would always roll back")
	}

	// Hyperblock: if-converts both sides everywhere.
	hb := region.BuildHyperblock(nil, fp, entry, 0.1)
	fmt.Printf("\nhyperblock from %s: %d ops, %d predicates, %d cold ops\n",
		entry, hb.NumOps(), hb.PredBits, hb.ColdOps)

	// Braid: merge the two real paths.
	braids := region.BuildBraids(fp, 0)
	top := braids[0]
	fmt.Printf("\nhot braid: merges %d paths, coverage %.1f%%, %d ops, %d guards, %d internal IFs\n",
		top.MergedPathCount(), top.Coverage(fp)*100, top.NumOps(), top.Guards, top.IFs)

	pathGuards := 0
	for _, p := range top.Paths {
		pathGuards += p.Branches
	}
	fmt.Printf("constituent paths carry %d guards in total; the braid needs %d\n", pathGuards, top.Guards)

	bf, err := frame.Build(nil, &top.Region, frame.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbraid frame: %d dataflow ops, %d selects (merge phis), live %d in / %d out\n",
		bf.NumOps(), bf.Selects, len(bf.LiveIn), len(bf.LiveOut))
	fmt.Println("\nany in-region flow — including block combinations never profiled —")
	fmt.Println("completes on the accelerator: that is the braid coverage bonus.")
}
