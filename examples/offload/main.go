// Offload: the whole-system evaluation of Section VI on one workload.
//
// It captures a baseline run on the Table V host model, then compares
// offload targets (hottest BL-Path under oracle and history prediction; the
// filter-and-rank braid selection) on cycles, energy, coverage, and
// predictor precision — the per-workload view behind Figures 9 and 10.
//
// Run with: go run ./examples/offload [workload]   (default 456.hmmer)
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"needle/internal/core"
	"needle/internal/workloads"
)

func main() {
	name := "456.hmmer"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	w := workloads.ByName(name)
	if w == nil {
		log.Fatalf("unknown workload %q; try one of %v", name, workloads.Names())
	}

	a, err := core.New().RunWorkload(context.Background(), w, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %s — %s\n", w.Name, w.Notes)
	fmt.Printf("baseline: %d host cycles, %.1f uJ\n\n",
		a.Trace.BaselineCycles, a.Trace.BaselineEnergyPJ/1e6)

	fmt.Printf("%-24s %12s %12s %10s %10s\n", "target", "cycles", "improvement", "precision", "coverage")
	row := func(label string, cycles int64, imp, prec, cov float64) {
		fmt.Printf("%-24s %12d %+11.1f%% %10.2f %9.0f%%\n", label, cycles, imp*100, prec, cov*100)
	}
	row("hottest path + oracle", a.PathOracle.OffloadCycles, a.PathOracle.Improvement,
		a.PathOracle.Precision, a.PathOracle.Coverage)
	row("hottest path + history", a.PathHistory.OffloadCycles, a.PathHistory.Improvement,
		a.PathHistory.Precision, a.PathHistory.Coverage)
	bc := a.BraidChoice
	row("braid ("+bc.Policy+")", bc.Result.OffloadCycles, bc.Result.Improvement,
		bc.Result.Precision, bc.Result.Coverage)

	fmt.Printf("\nbraid energy: %.1f uJ -> %.1f uJ (%.1f%% reduction)\n",
		bc.Result.BaselineEnergyPJ/1e6, bc.Result.OffloadEnergyPJ/1e6, bc.Result.EnergyReduction*100)

	if br := bc.Braid; br != nil {
		fmt.Printf("\nselected braid: merges %d paths, %d ops, %d guards, %d IFs\n",
			br.MergedPathCount(), br.NumOps(), br.Guards, br.IFs)
		fmt.Printf("invocations: %d of %d opportunities, %d committed\n",
			bc.Result.Invocations, bc.Result.Opportunities, bc.Result.Successes)
	} else {
		fmt.Println("\nfilter stage declined to offload: no braid candidate profits here")
	}

	if a.HotBraidFrame != nil {
		fmt.Printf("\nHLS estimate for the hot braid: %d ALMs (%.0f%%), %.0f mW, fits=%v\n",
			a.HLS.ALMs, a.HLS.Utilization*100, a.HLS.PowerMW, a.HLS.Fits)
	}
}
