// Package tables regenerates every table and figure of the paper's
// evaluation from a single analysis sweep over the 29 workloads. Each
// TableX/FigureX method returns the formatted rows the paper reports;
// structured accessors back the regression tests and benchmarks.
package tables

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"needle/internal/cgra"
	"needle/internal/core"
	"needle/internal/frame"
	"needle/internal/ir"
	"needle/internal/region"
	"needle/internal/workloads"
)

// Suite is one full analysis sweep.
type Suite struct {
	Cfg      core.Config
	Analyses []*core.Analysis
	// Analyzer ran the sweep. Figure 3 analyzes its kernel on it too, so
	// the kernel shares the sweep's store.
	Analyzer *core.Analyzer
}

// Run analyzes every workload on az under ctx: cancelling it stops the
// sweep between workloads and returns ctx.Err(). The Analyzer chooses the
// worker pool (WithJobs) and any stage-artifact sharing (WithStore); row
// order and values are independent of both.
func Run(ctx context.Context, az *core.Analyzer, cfg core.Config) (*Suite, error) {
	as, err := az.RunAll(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Suite{Cfg: cfg, Analyses: as, Analyzer: az}, nil
}

// ByName returns the analysis for a workload name, or nil.
func (s *Suite) ByName(name string) *core.Analysis {
	for _, a := range s.Analyses {
		if a.Workload.Name == name {
			return a
		}
	}
	return nil
}

func header(title, cols string) string {
	return title + "\n" + cols + "\n" + strings.Repeat("-", len(cols)) + "\n"
}

// bar renders v (a fraction) as an ASCII bar scaled so that full == maxFrac.
func bar(v, maxFrac float64, width int) string {
	if v < 0 {
		return "!" + strings.Repeat(".", width-1)
	}
	n := int(v / maxFrac * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

// TableI renders the control-flow characteristics of every hot function
// (Branch=>Mem, Mem=>Branch, predication bits, backward branches) plus the
// paper's bucket summaries.
func (s *Suite) TableI() string {
	var sb strings.Builder
	sb.WriteString(header("Table I: control flow characteristics (hot function)",
		fmt.Sprintf("%-20s %12s %12s %10s %8s", "workload", "Branch=>Mem", "Mem=>Branch", "PredBits", "Loops")))
	var brMemBig, memBrBig, pred10, loops3 []string
	for _, a := range s.Analyses {
		st := a.CFStats
		fmt.Fprintf(&sb, "%-20s %12.1f %12.1f %10d %8d\n",
			a.Workload.Name, st.AvgBranchMem, st.AvgMemBranch, st.PredicationBits, st.BackwardBranches)
		if st.AvgBranchMem > 1.5 {
			brMemBig = append(brMemBig, a.Workload.Name)
		}
		if st.AvgMemBranch > 1.5 {
			memBrBig = append(memBrBig, a.Workload.Name)
		}
		if st.PredicationBits >= 10 {
			pred10 = append(pred10, a.Workload.Name)
		}
		if st.BackwardBranches >= 3 {
			loops3 = append(loops3, a.Workload.Name)
		}
	}
	fmt.Fprintf(&sb, "\nBranch=>Mem > 1.5 ops: %d apps (%s)\n", len(brMemBig), strings.Join(brMemBig, ", "))
	fmt.Fprintf(&sb, "Mem=>Branch > 1.5 ops: %d apps (%s)\n", len(memBrBig), strings.Join(memBrBig, ", "))
	fmt.Fprintf(&sb, "Predication >= 10 bits: %d apps\n", len(pred10))
	fmt.Fprintf(&sb, "Backward branches >= 3: %d apps\n", len(loops3))
	return sb.String()
}

// Figure4 renders the branch-bias distribution: the fraction of executed
// branches below 80%% bias per workload.
func (s *Suite) Figure4() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 4: distribution of biased branches",
		fmt.Sprintf("%-20s %10s %10s %10s %10s %8s", "workload", "[.5,.6)", "[.6,.7)", "[.7,.8)", "[.8,1]", "<80%")))
	count24 := 0
	for _, a := range s.Analyses {
		h := a.Profile.BiasHistogram()
		below := a.Profile.FractionBelow80()
		fmt.Fprintf(&sb, "%-20s %10.2f %10.2f %10.2f %10.2f %7.0f%%\n",
			a.Workload.Name, h[0], h[1], h[2], h[3], below*100)
		if below > 0 {
			count24++
		}
	}
	fmt.Fprintf(&sb, "\nworkloads with some branches <80%% biased: %d of %d\n", count24, len(s.Analyses))
	return sb.String()
}

// Figure5 renders the fraction of cold ops folded into hyperblocks.
func (s *Suite) Figure5() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 5: fraction of cold ops included in Hyperblocks",
		fmt.Sprintf("%-20s %10s %10s %10s", "workload", "ops", "coldOps", "fraction")))
	for _, a := range s.Analyses {
		hb := a.Hyperblock()
		if hb == nil {
			continue
		}
		fmt.Fprintf(&sb, "%-20s %10d %10d %9.0f%%\n",
			a.Workload.Name, hb.NumOps(), hb.ColdOps, hb.ColdOpFraction()*100)
	}
	return sb.String()
}

// Figure6 renders the stacked path coverage of the top five paths.
func (s *Suite) Figure6() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 6: path coverage (Pwt) by rank",
		fmt.Sprintf("%-20s %7s %7s %7s %7s %7s %8s", "workload", "top1", "top2", "top3", "top4", "top5", "sum5")))
	var covs []float64
	top20 := 0
	for _, a := range s.Analyses {
		var cum [5]float64
		for k := 1; k <= 5; k++ {
			cum[k-1] = a.Profile.CoverageTopK(k)
		}
		fmt.Fprintf(&sb, "%-20s %6.0f%% %6.0f%% %6.0f%% %6.0f%% %6.0f%% %7.0f%%\n",
			a.Workload.Name, cum[0]*100, (cum[1]-cum[0])*100, (cum[2]-cum[1])*100,
			(cum[3]-cum[2])*100, (cum[4]-cum[3])*100, cum[4]*100)
		covs = append(covs, cum[4])
		if cum[0] >= 0.20 {
			top20++
		}
	}
	sort.Float64s(covs)
	fmt.Fprintf(&sb, "\nmedian top-5 coverage: %.0f%%; workloads with top path >= 20%%: %d of %d\n",
		covs[len(covs)/2]*100, top20, len(s.Analyses))
	return sb.String()
}

// TableII renders the per-workload path characteristics C1-C8.
func (s *Suite) TableII() string {
	var sb strings.Builder
	sb.WriteString(header("Table II: path characteristics",
		fmt.Sprintf("%-20s %8s %7s %6s %4s %9s %5s %5s %5s",
			"workload", "C1:exec", "C2:cov5", "C3:ins", "C4:b", "C5:in,out", "C6:ph", "C7:mem", "C8:ov")))
	for _, a := range s.Analyses {
		hot := a.Profile.HottestPath()
		fr, err := a.PathFrame(0)
		phiCancel := 0
		liveIn, liveOut := 0, 0
		if err == nil {
			phiCancel = fr.Cancelled
			liveIn, liveOut = len(fr.LiveIn), len(fr.LiveOut)
		}
		fmt.Fprintf(&sb, "%-20s %8d %6.0f%% %6d %4d %4d,%-4d %5d %5d %5d\n",
			a.Workload.Name, a.Profile.NumExecutedPaths(), a.Profile.CoverageTopK(5)*100,
			hot.Ops, hot.Branches, liveIn, liveOut, phiCancel, hot.MemOps, a.Profile.OverlapCount(5))
	}
	return sb.String()
}

// TableIII renders the next-path target expansion buckets.
func (s *Suite) TableIII() string {
	type row struct {
		name   string
		bias   float64
		same   bool
		expand float64
	}
	var rows []row
	for _, a := range s.Analyses {
		hot := a.Profile.HottestPath()
		st, ok := a.Profile.SequenceBias(hot.ID)
		if !ok {
			continue
		}
		rows = append(rows, row{a.Workload.Name, st.Bias, st.SamePath, st.ExpandFrac})
	}
	var sb strings.Builder
	sb.WriteString("Table III: next path target expansion\n")
	buckets := []struct {
		label    string
		lo, hi   float64
		names    []string
		samePath int
	}{
		{label: "90-100%", lo: 0.9, hi: 1.01},
		{label: "70-90%", lo: 0.7, hi: 0.9},
		{label: "<70%", lo: -1, hi: 0.7},
	}
	sameTotal := 0
	for _, r := range rows {
		for i := range buckets {
			if r.bias >= buckets[i].lo && r.bias < buckets[i].hi {
				buckets[i].names = append(buckets[i].names, r.name)
				if r.same {
					buckets[i].samePath++
				}
			}
		}
		if r.same {
			sameTotal++
		}
	}
	for _, b := range buckets {
		fmt.Fprintf(&sb, "%-8s %2d workloads (%d repeat the same path): %s\n",
			b.label, len(b.names), b.samePath, strings.Join(b.names, " "))
	}
	fmt.Fprintf(&sb, "\nsame path repeats in %d of %d workloads\n", sameTotal, len(rows))
	return sb.String()
}

// TableIV renders the braid characteristics C1-C7.
func (s *Suite) TableIV() string {
	var sb strings.Builder
	sb.WriteString(header("Table IV: braid characteristics",
		fmt.Sprintf("%-20s %8s %7s %6s %6s %4s %4s %9s",
			"workload", "#braids", "paths/b", "cov%", "ins", "grd", "IFs", "in,out")))
	for _, a := range s.Analyses {
		if len(a.Braids) == 0 {
			continue
		}
		top := a.Braids[0]
		var merged float64
		for _, br := range a.Braids {
			merged += float64(br.MergedPathCount())
		}
		merged /= float64(len(a.Braids))
		var live region.LiveSets
		top.LiveValues(a.AM, &live)
		fmt.Fprintf(&sb, "%-20s %8d %7.1f %5.0f%% %6d %4d %4d %4d,%-4d\n",
			a.Workload.Name, len(a.Braids), merged, top.Coverage(a.Profile)*100,
			top.NumOps(), top.Guards, top.IFs, live.In.Len(), live.Out.Len())
	}
	return sb.String()
}

// Figure2 renders the design-space comparison of the paper's Figure 2 with
// measured numbers: the non-speculative predicated hyperblock (middle
// column) versus Needle's speculative BL-Path and Braid offloads.
func (s *Suite) Figure2() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 2: spatial-accelerator design space (measured)",
		fmt.Sprintf("%-20s %12s %12s %12s %12s", "workload", "compoundFU", "hyperblock", "path/hist", "braid")))
	var cfMean, hbMean, brMean float64
	for _, a := range s.Analyses {
		hb := a.HyperblockResult
		cf := compoundFUImprovement(a)
		fmt.Fprintf(&sb, "%-20s %+11.1f%% %+11.1f%% %+11.1f%% %+11.1f%%\n",
			a.Workload.Name, cf*100, hb.Improvement*100, a.PathHistory.Improvement*100,
			a.BraidChoice.Result.Improvement*100)
		cfMean += cf
		hbMean += hb.Improvement
		brMean += a.BraidChoice.Result.Improvement
	}
	n := float64(len(s.Analyses))
	fmt.Fprintf(&sb, "\nMEAN: compoundFU=%.1f%% hyperblock=%.1f%% braid=%.1f%%\n",
		cfMean/n*100, hbMean/n*100, brMean/n*100)
	return sb.String()
}

// compoundFUImprovement estimates Figure 2's first column: offload at basic
// block granularity, with a host interaction (live-value transfer + sync)
// on every invocation and no pipelining across invocations — the structure
// prior work criticizes for frequent OOO interactions and low ILP. The
// estimate offloads the hottest block: improvement =
// (hostShare - accelCost) / baseline, clamped below by never offloading.
func compoundFUImprovement(a *core.Analysis) float64 {
	fp := a.Profile
	var hot *ir.Block
	var hotCount int64
	for _, b := range fp.F.Blocks {
		c := fp.BlockCounts[b.Index]
		if hot == nil || c*int64(b.NumOps()) > hotCount*int64(hot.NumOps()) {
			hot, hotCount = b, c
		}
	}
	if hot == nil || hotCount == 0 || hot.NumOps() == 0 {
		return 0
	}
	fr, err := frame.Build(a.AM, region.FromBlock(fp.F, hot), a.Config.Sim.Frame)
	if err != nil {
		return 0
	}
	sched := cgra.Schedule(fr, a.Config.Sim.CGRA)
	// Host cycles attributable to the block: its share of dynamic ops at
	// the measured baseline rate.
	dynOps := hotCount * int64(len(hot.Instrs))
	hostShare := float64(a.Trace.BaselineCycles) * float64(dynOps) / float64(fp.TotalWeight)
	accel := float64(hotCount * sched.InvokeCycles()) // cold every time: no pipelining
	gain := (hostShare - accel) / float64(a.Trace.BaselineCycles)
	if gain < 0 {
		return 0 // the compiler declines block offload at a loss
	}
	return gain
}

// Figure9 renders the performance improvements: BL-Path under oracle and
// history prediction, and the selected braid.
func (s *Suite) Figure9() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 9: performance improvement (% cycle reduction)",
		fmt.Sprintf("%-20s %10s %10s %6s %10s %8s  %s", "workload", "path/orac", "path/hist", "prec", "braid", "policy", "braid bar (0-100%)")))
	var so, sh, sbr float64
	for _, a := range s.Analyses {
		fmt.Fprintf(&sb, "%-20s %9.1f%% %9.1f%% %6.2f %9.1f%% %8s  %s\n",
			a.Workload.Name, a.PathOracle.Improvement*100, a.PathHistory.Improvement*100,
			a.PathHistory.Precision, a.BraidChoice.Result.Improvement*100, a.BraidChoice.Policy,
			bar(a.BraidChoice.Result.Improvement, 1.0, 25))
		so += a.PathOracle.Improvement
		sh += a.PathHistory.Improvement
		sbr += a.BraidChoice.Result.Improvement
	}
	n := float64(len(s.Analyses))
	fmt.Fprintf(&sb, "\nMEAN: path(oracle)=%.1f%% path(history)=%.1f%% braid=%.1f%%\n",
		so/n*100, sh/n*100, sbr/n*100)
	return sb.String()
}

// Figure10 renders the net energy reduction for the selected braid,
// annotated with coverage as in the paper.
func (s *Suite) Figure10() string {
	var sb strings.Builder
	sb.WriteString(header("Figure 10: net energy reduction for Braid",
		fmt.Sprintf("%-20s %10s %10s  %s", "workload", "energy", "coverage", "energy bar (0-60%)")))
	var se float64
	for _, a := range s.Analyses {
		fmt.Fprintf(&sb, "%-20s %9.1f%% %9.0f%%  %s\n",
			a.Workload.Name, a.BraidChoice.Result.EnergyReduction*100, a.BraidChoice.Result.Coverage*100,
			bar(a.BraidChoice.Result.EnergyReduction, 0.6, 25))
		se += a.BraidChoice.Result.EnergyReduction
	}
	fmt.Fprintf(&sb, "\nMEAN energy reduction: %.1f%%\n", se/float64(len(s.Analyses))*100)
	return sb.String()
}

// TableHLS renders the FPGA synthesis estimates of the hot braid frames
// (Section VI, "HLS for NEEDLE identified Braids").
func (s *Suite) TableHLS() string {
	var sb strings.Builder
	sb.WriteString(header("HLS estimates (Altera Cyclone V, ~85K ALMs)",
		fmt.Sprintf("%-20s %8s %8s %9s %6s", "workload", "ALMs", "util", "power", "fits")))
	under20 := 0
	total := 0
	for _, a := range s.Analyses {
		if a.HotBraidFrame == nil {
			continue
		}
		total++
		r := a.HLS
		if r.Utilization < 0.20 {
			under20++
		}
		fmt.Fprintf(&sb, "%-20s %8d %7.0f%% %7.0fmW %6v\n",
			a.Workload.Name, r.ALMs, r.Utilization*100, r.PowerMW, r.Fits)
	}
	fmt.Fprintf(&sb, "\nworkloads under 20%% utilization: %d of %d\n", under20, total)
	return sb.String()
}

// TableV renders the system parameters in use.
func (s *Suite) TableV() string {
	c := s.Cfg.Sim
	var sb strings.Builder
	sb.WriteString("Table V: system parameters\n")
	fmt.Fprintf(&sb, "Host core: %d-wide OOO, %d-entry ROB, %d ALU, %d FPU, perfect BP\n",
		c.OOO.Width, c.OOO.ROB, c.OOO.ALUs, c.OOO.FPUs)
	mem := c.Mem
	if mem.L1Words == 0 {
		fmt.Fprintf(&sb, "L1: 64K 4-way, 2 cycles; shared L2 (NUCA), 20 cycles\n")
	} else {
		fmt.Fprintf(&sb, "L1: %d words %d-way, %d cycles; L2 %d cycles\n",
			mem.L1Words, mem.L1Ways, mem.L1Latency, mem.L2Latency)
	}
	fmt.Fprintf(&sb, "CGRA: %dx%d FUs, %d-cycle reconfig, %d mem ports, %d-cycle loads\n",
		c.CGRA.Rows, c.CGRA.Cols, c.CGRA.ReconfigCycles, c.CGRA.MemPorts, c.CGRA.MemLatency)
	fmt.Fprintf(&sb, "CGRA energy: %gpJ switch+link, %gpJ INT, %gpJ FP, %gpJ latch\n",
		c.CGRA.SwitchLinkPJ, c.CGRA.IntPJ, c.CGRA.FPPJ, c.CGRA.LatchPJ)
	fmt.Fprintf(&sb, "CPU energy: %gpJ front-end/instr, %gpJ INT, %gpJ FP, %gpJ L1, %gpJ L2\n",
		c.CPU.FrontEndPJ, c.CPU.IntPJ, c.CPU.FPPJ, c.CPU.L1PJ, c.CPU.L2PJ)
	return sb.String()
}

// Figure3 demonstrates the Superblock/Hyperblock construction pitfall on
// the overlapping-path example (Section II-B): the edge-profile superblock
// is infeasible while the path profile identifies both hot paths exactly.
// It builds its own kernel, so it needs no sweep: az analyzes the kernel,
// and with a store it reuses the kernel's stored stages.
func Figure3(az *core.Analyzer) string {
	a, err := az.RunWorkload(context.Background(), figure3Workload, core.DefaultConfig())
	if err != nil {
		return "figure 3 kernel failed: " + err.Error()
	}
	sb := a.Superblock()
	hb := a.Hyperblock()
	hot := a.Profile.HottestPath()
	braid := a.HottestBraid()

	var out strings.Builder
	out.WriteString("Figure 3: overlapping paths vs region formation\n")
	fmt.Fprintf(&out, "executed paths: %d; hottest path coverage: %.0f%%\n",
		a.Profile.NumExecutedPaths(), hot.Coverage(a.Profile)*100)
	fmt.Fprintf(&out, "superblock: blocks=%d feasible=%v matches-hottest=%v\n",
		len(sb.Blocks), sb.Feasible, sb.HottestPath)
	if hb != nil {
		fmt.Fprintf(&out, "hyperblock: ops=%d coldOps=%d (wasted %.0f%%)\n",
			hb.NumOps(), hb.ColdOps, hb.ColdOpFraction()*100)
	}
	if braid != nil {
		fmt.Fprintf(&out, "braid: merges %d paths, coverage %.0f%%, no wasted blocks\n",
			braid.MergedPathCount(), braid.Coverage(a.Profile)*100)
	}
	return out.String()
}

// Parts lists every table and figure, in the order All renders them.
// Name is the part's -bench-json entry ("TableII", "Figure9"), and Render
// draws it from a sweep. Sweep is false only for Figure 3, which builds its
// own kernel: its Render reads only the Suite's Analyzer.
var Parts = []struct {
	Name   string
	Sweep  bool
	Render func(*Suite) string
}{
	{"TableV", true, (*Suite).TableV},
	{"TableI", true, (*Suite).TableI},
	{"Figure2", true, (*Suite).Figure2},
	{"Figure3", false, func(s *Suite) string { return Figure3(s.Analyzer) }},
	{"Figure4", true, (*Suite).Figure4},
	{"Figure5", true, (*Suite).Figure5},
	{"Figure6", true, (*Suite).Figure6},
	{"TableII", true, (*Suite).TableII},
	{"TableIII", true, (*Suite).TableIII},
	{"TableIV", true, (*Suite).TableIV},
	{"Figure9", true, (*Suite).Figure9},
	{"Figure10", true, (*Suite).Figure10},
	{"TableHLS", true, (*Suite).TableHLS},
}

// All renders every table and figure.
func (s *Suite) All() string {
	out := make([]string, len(Parts))
	for i, p := range Parts {
		out[i] = p.Render(s)
	}
	return strings.Join(out, "\n")
}

// figure3Workload is the alternating-outcome kernel of Figure 3: two
// sequential diamonds whose outcomes are anti-correlated, so the hottest
// edge-profile trace never executes.
var figure3Workload = &workloads.Workload{
	Name: "figure3", Suite: "demo",
	Notes:    "anti-correlated diamonds: infeasible superblock demo",
	DefaultN: 4000,
	MemWords: func(n int) int { return 16 },
	Build:    workloads.BuildFigure3Kernel,
	Setup: func(mem []uint64, n int) []uint64 {
		return []uint64{uint64(n)}
	},
}
