// Command needle runs the Needle pipeline: it profiles the benchmark
// workloads, extracts and ranks Ball-Larus paths and braids, builds
// software frames, and regenerates the paper's tables and figures.
//
// Usage:
//
//	needle -list                      list workloads
//	needle -table II [-n 8000]        regenerate a table (I, II, III, IV, V, HLS)
//	needle -figure 9 [-n 8000]        regenerate a figure (2, 3, 4, 5, 6, 9, 10)
//	needle -all                       regenerate everything
//	needle -workload 470.lbm          detailed single-workload report
//	needle -nir prog.nir              analyze a user .nir program from disk
//	  [-entry f] [-mem 8192] [-args 5,f:2.5]   entry point, memory, arguments
//	needle -vet -nir prog.nir         static-analysis diagnostics only [-json]
//	needle -O -nir prog.nir           optimize (SCCP fold + DCE) before profiling
//	needle -trace out.json            full sweep + Chrome trace timeline
//	needle -all -metrics              any mode + counter dump on stderr
//	needle -all -cache-dir ~/.needle  persist stage artifacts; warm-starts reruns
//
// -nir analyzes an arbitrary program through the exact pipeline the
// built-in workloads use; combine with -json, -dot, or the default report.
// `needle -nir file -json` is byte-identical to POSTing the same source to
// a needled daemon's /v1/analyze; like the daemon, -nir bounds the run by
// program.DefaultLimits' steps and path occurrences.
//
// -vet runs the static-analysis suite (SCCP, reachability, value ranges,
// memory dependence) over a -nir program or a -workload kernel without
// executing it, prints the diagnostics (-json for the machine-readable
// report, byte-identical to /v1/vet), and exits non-zero when any
// error-severity diagnostic is present.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"needle/internal/core"
	"needle/internal/ir"
	"needle/internal/obs"
	"needle/internal/pipeline"
	"needle/internal/program"
	"needle/internal/tables"
	"needle/internal/vet"
	"needle/internal/workloads"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available workloads")
		table      = flag.String("table", "", "regenerate a table: I, II, III, IV, V, HLS")
		figure     = flag.String("figure", "", "regenerate a figure: 2, 3, 4, 5, 6, 9, 10")
		all        = flag.Bool("all", false, "regenerate every table and figure")
		workload   = flag.String("workload", "", "detailed report for one workload")
		nirFile    = flag.String("nir", "", "analyze a user program: path to a .nir file")
		entry      = flag.String("entry", "", "entry function of the -nir program (default: first)")
		memWords   = flag.Int("mem", 0, "memory words for the -nir program (0 = 4096)")
		argList    = flag.String("args", "", "comma-separated -nir entry arguments: int64, or f:-prefixed float64")
		n          = flag.Int("n", 0, "problem size override (0 = workload default)")
		vetMode    = flag.Bool("vet", false, "run static-analysis diagnostics instead of analyzing (with -nir/-workload)")
		optMode    = flag.Bool("O", false, "run the SCCP fold + DCE optimization stage before profiling")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON (with -workload/-nir or alone for all)")
		dotOut     = flag.Bool("dot", false, "emit the hot braid frame's dataflow graph as Graphviz DOT (with -workload/-nir)")
		emitNIR    = flag.Bool("emit-nir", false, "emit the workload's kernel as textual .nir (with -workload)")
		jobs       = flag.Int("j", 0, "parallel analysis workers (0 = GOMAXPROCS, 1 = serial)")
		benchOut   = flag.Bool("bench-json", false, "run the full suite and emit wall-clock timings as JSON")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file (alone: runs the full sweep)")
		metricsOut = flag.Bool("metrics", false, "dump pipeline counters and span aggregates to stderr after the run")
		cacheDir   = flag.String("cache-dir", "", "persist stage artifacts to this directory; later runs warm-start from it")
		cacheMaxMB = flag.Int("cache-max-mb", 0, "evict least-recently-used artifacts when -cache-dir exceeds this size (0 = unbounded)")
	)
	flag.Parse()

	// Observability is recorded only when an exporter will consume it; the
	// instrumentation is a no-op otherwise.
	observing := *traceOut != "" || *metricsOut
	if observing {
		obs.Enable()
	}
	// Sweeps honor interruption: ^C or SIGTERM cancels the context and the
	// sweep stops between workloads instead of running all 29 to the end.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var store pipeline.Store
	if *cacheDir != "" {
		ds, err := pipeline.NewDiskStore(*cacheDir, *cacheMaxMB)
		if err != nil {
			fatal("cache: %v", err)
		}
		store = ds
	}
	dispatch(ctx, options{
		list: *list, table: *table, figure: *figure, all: *all,
		workload: *workload, nirFile: *nirFile, entry: *entry,
		memWords: *memWords, argList: *argList, n: *n,
		vet: *vetMode, opt: *optMode,
		jsonOut: *jsonOut, dotOut: *dotOut, emitNIR: *emitNIR,
		jobs: *jobs, benchOut: *benchOut, observing: observing,
	}, store)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal("trace: %v", err)
		}
		if err := obs.WriteChromeTrace(f); err != nil {
			fatal("trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "needle: wrote %s (open at https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	if *metricsOut {
		if err := obs.WriteMetrics(os.Stderr); err != nil {
			fatal("metrics: %v", err)
		}
		if store != nil {
			writeCacheStats(os.Stderr, store)
		}
	}
}

// writeCacheStats prints the store's per-stage cache behaviour, stage
// order matching the pipeline.
func writeCacheStats(w *os.File, store pipeline.Store) {
	stats := store.Stats()
	fmt.Fprintln(w, "cache stats (per stage):")
	for _, name := range pipeline.StageNames() {
		cs, ok := stats[name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-8s hits=%d misses=%d disk_hits=%d evictions=%d mem_evictions=%d\n",
			name, cs.Hits, cs.Misses, cs.DiskHits, cs.Evictions, cs.MemEvictions)
	}
}

// options carries the parsed command line into dispatch.
type options struct {
	list                    bool
	table, figure           string
	all                     bool
	workload                string
	nirFile, entry, argList string
	memWords, n             int
	vet, opt                bool
	jsonOut, dotOut         bool
	emitNIR                 bool
	jobs                    int
	benchOut, observing     bool
}

// splitArgs parses the -args flag: a comma-separated list of argument
// literals (whitespace around entries is ignored; empty means no args).
func splitArgs(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// dispatch runs the selected mode to completion; the observability
// exporters run after it returns.
func dispatch(ctx context.Context, o options, store pipeline.Store) {
	if o.list {
		for _, w := range workloads.All() {
			fmt.Printf("%-20s %-8s %s\n", w.Name, w.Suite, w.Notes)
		}
		return
	}

	cfg := core.DefaultConfig()
	cfg.N = o.n
	cfg.Opt = o.opt
	az := core.New(core.WithStore(store), core.WithJobs(o.jobs))

	switch {
	case o.vet:
		runVet(o)
	case o.benchOut:
		benchJSON(ctx, az, cfg, o.jobs)
	case o.nirFile != "":
		p := loadNIR(o)
		// A user program may never exit: it runs under needled's default
		// step and occurrence bounds, which change only how a runaway
		// program fails, never the output of one that finishes.
		lim := program.DefaultLimits()
		cfg.Sim.MaxSteps, cfg.Sim.MaxOccurrences = lim.MaxSteps, lim.MaxOccurrences
		a, err := az.Run(ctx, p, cfg)
		if err != nil {
			fatal("analyze: %v", err)
		}
		emit(a, o, p.Name)
	case o.workload != "":
		w := workloads.ByName(o.workload)
		if w == nil {
			fatal("unknown workload %q (try -list)", o.workload)
		}
		if o.emitNIR {
			fmt.Print(ir.PrintModule(ir.ModuleOf(w.Function())))
			return
		}
		a, err := az.RunWorkload(ctx, w, cfg)
		if err != nil {
			fatal("analyze: %v", err)
		}
		emit(a, o, o.workload)
	case o.jsonOut:
		as, err := az.RunAll(ctx, cfg)
		if err != nil {
			fatal("analysis sweep: %v", err)
		}
		out, err := core.MarshalSummaries(as)
		if err != nil {
			fatal("json: %v", err)
		}
		fmt.Println(string(out))
	case o.table != "" || o.figure != "" || o.all:
		renderParts(ctx, az, cfg, o)
	case o.observing:
		// Observability-only run (`needle -trace out.json`): sweep every
		// workload so the exported timeline covers the whole pipeline, but
		// emit no table output.
		as, err := az.RunAll(ctx, cfg)
		if err != nil {
			fatal("analysis sweep: %v", err)
		}
		fmt.Fprintf(os.Stderr, "needle: analyzed %d workloads (observability run)\n", len(as))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// loadNIR loads the -nir program with the -entry, -mem and -args options.
func loadNIR(o options) *program.Program {
	p, err := program.LoadFile(o.nirFile, program.LoadOptions{
		Entry:    o.entry,
		MemWords: o.memWords,
		Args:     splitArgs(o.argList),
	})
	if err != nil {
		fatal("load %s: %v", o.nirFile, err)
	}
	return p
}

// renderParts prints every table and figure (-all), or the one -table or
// -figure names, running the sweep only when the output needs it.
func renderParts(ctx context.Context, az *core.Analyzer, cfg core.Config, o options) {
	parts := tables.Parts
	if !o.all {
		name, kind, id := "Figure"+o.figure, "figure", o.figure
		if o.table != "" {
			name, kind, id = "Table"+strings.ToUpper(o.table), "table", o.table
		}
		parts = nil
		for i, p := range tables.Parts {
			if p.Name == name {
				parts = tables.Parts[i : i+1]
			}
		}
		if parts == nil {
			fatal("unknown %s %q", kind, id)
		}
	}
	var s *tables.Suite
	if o.all || parts[0].Sweep {
		var err error
		if s, err = tables.Run(ctx, az, cfg); err != nil {
			fatal("analysis sweep: %v", err)
		}
	}
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = p.Render(s)
	}
	fmt.Println(strings.Join(out, "\n"))
}

// runVet loads the selected program (a -nir file or a -workload kernel),
// runs the static-analysis diagnostic suite over it, prints the report
// (-json for the machine-readable form, byte-identical to the needled
// daemon's /v1/vet response), and exits non-zero when any error-severity
// diagnostic is present.
func runVet(o options) {
	var p *program.Program
	switch {
	case o.nirFile != "":
		p = loadNIR(o)
	case o.workload != "":
		w := workloads.ByName(o.workload)
		if w == nil {
			fatal("unknown workload %q (try -list)", o.workload)
		}
		var err error
		p, err = w.Program(o.n)
		if err != nil {
			fatal("workload %s: %v", o.workload, err)
		}
	default:
		fatal("-vet needs a program: combine with -nir or -workload")
	}
	rep := vet.Check(nil, p)
	if o.jsonOut {
		out, err := vet.MarshalReport(rep)
		if err != nil {
			fatal("json: %v", err)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(rep.Text())
	}
	if rep.HasErrors() {
		os.Exit(1)
	}
}

// emit renders one analysis the way the single-run flags ask for: -json,
// -dot, or the default human-readable report.
func emit(a *core.Analysis, o options, name string) {
	switch {
	case o.jsonOut:
		out, err := core.MarshalSummaries([]*core.Analysis{a})
		if err != nil {
			fatal("json: %v", err)
		}
		fmt.Println(string(out))
	case o.dotOut:
		if a.HotBraidFrame == nil {
			fatal("no frame to render for %s", name)
		}
		fmt.Print(a.HotBraidFrame.Dot())
	default:
		report(a)
	}
}

// benchJSON runs the full analysis sweep and every table/figure renderer,
// emitting wall-clock timings as JSON — the perf-trajectory artifact future
// changes are measured against.
func benchJSON(ctx context.Context, az *core.Analyzer, cfg core.Config, jobs int) {
	type timing struct {
		Name string  `json:"name"`
		Ms   float64 `json:"ms"`
	}
	start := time.Now()
	s, err := tables.Run(ctx, az, cfg)
	if err != nil {
		fatal("analysis sweep: %v", err)
	}
	sweepMs := time.Since(start).Seconds() * 1000

	var timings []timing
	for _, p := range tables.Parts {
		t0 := time.Now()
		_ = p.Render(s)
		timings = append(timings, timing{Name: p.Name, Ms: time.Since(t0).Seconds() * 1000})
	}
	out, err := json.MarshalIndent(struct {
		Jobs      int      `json:"jobs"`
		Workloads int      `json:"workloads"`
		SweepMs   float64  `json:"sweep_ms"`
		TotalMs   float64  `json:"total_ms"`
		Tables    []timing `json:"tables"`
	}{jobs, len(s.Analyses), sweepMs, time.Since(start).Seconds() * 1000, timings}, "", "  ")
	if err != nil {
		fatal("json: %v", err)
	}
	fmt.Println(string(out))
}

func report(a *core.Analysis) {
	if w := a.Workload; w != nil {
		fmt.Printf("workload %s (%s): %s\n\n", w.Name, w.Suite, w.Notes)
	} else {
		fmt.Printf("program %s (%s)\n\n", a.Program.Name, a.Program.Suite)
	}
	fmt.Printf("profile: %d executed paths, top-1 coverage %.0f%%, top-5 %.0f%%\n",
		a.Profile.NumExecutedPaths(), a.Profile.CoverageTopK(1)*100, a.Profile.CoverageTopK(5)*100)
	st := a.CFStats
	fmt.Printf("control flow: %d branches, %d back edges, Branch=>Mem %.1f, Mem=>Branch %.1f\n",
		st.Branches, st.BackwardBranches, st.AvgBranchMem, st.AvgMemBranch)
	hot := a.Profile.HottestPath()
	fmt.Printf("hottest path: %d ops, %d branches, %d mem ops, freq %d\n",
		hot.Ops, hot.Branches, hot.MemOps, hot.Freq)
	if fr, err := a.PathFrame(0); err == nil {
		fmt.Printf("path frame: %d dataflow ops, %d guards, %d phis cancelled, live %d in / %d out\n",
			fr.NumOps(), fr.Guards, fr.Cancelled, len(fr.LiveIn), len(fr.LiveOut))
	}
	if br := a.HottestBraid(); br != nil {
		fmt.Printf("hot braid: merges %d paths, coverage %.0f%%, %d ops, %d guards, %d IFs\n",
			br.MergedPathCount(), br.Coverage(a.Profile)*100, br.NumOps(), br.Guards, br.IFs)
	}
	fmt.Printf("\noffload (host baseline %d cycles):\n", a.Trace.BaselineCycles)
	fmt.Printf("  path+oracle : %+6.1f%%\n", a.PathOracle.Improvement*100)
	fmt.Printf("  path+history: %+6.1f%% (precision %.2f)\n",
		a.PathHistory.Improvement*100, a.PathHistory.Precision)
	fmt.Printf("  braid (%s): %+6.1f%%, energy %+.1f%%, coverage %.0f%%\n",
		a.BraidChoice.Policy, a.BraidChoice.Result.Improvement*100,
		a.BraidChoice.Result.EnergyReduction*100, a.BraidChoice.Result.Coverage*100)
	if a.HotBraidFrame != nil {
		fmt.Printf("\nHLS estimate: %d ALMs (%.0f%% of Cyclone V), %.0f mW\n",
			a.HLS.ALMs, a.HLS.Utilization*100, a.HLS.PowerMW)
	}
	if a.FrameErr != nil {
		fmt.Printf("\nframe: hot braid frame construction FAILED: %v\n", a.FrameErr)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "needle: "+format+"\n", args...)
	os.Exit(1)
}
