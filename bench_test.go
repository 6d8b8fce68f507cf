// Benchmarks regenerating every table and figure of the paper's evaluation,
// micro-benchmarks of the pipeline's hot building blocks, and ablation
// benchmarks for the design choices called out in DESIGN.md.
//
// The table/figure benchmarks run the full 29-workload sweep at a reduced
// problem size per iteration and report the paper's headline metrics via
// b.ReportMetric, so `go test -bench=.` both exercises and summarizes the
// reproduction.
package needle_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"needle/internal/ballarus"
	"needle/internal/cgra"
	"needle/internal/core"
	"needle/internal/frame"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/mem"
	"needle/internal/ooo"
	"needle/internal/oracle"
	"needle/internal/passes"
	"needle/internal/pipeline"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/program"
	"needle/internal/region"
	"needle/internal/sim"
	"needle/internal/spec"
	"needle/internal/tables"
	"needle/internal/vet"
	"needle/internal/workloads"
)

// benchN is the problem size for sweep benchmarks: large enough for the
// shapes to hold, small enough that each iteration stays subsecond.
const benchN = 1500

var (
	suiteOnce sync.Once
	suiteVal  *tables.Suite
	suiteErr  error
)

// sharedSuite amortizes one sweep across the render-only benchmarks.
func sharedSuite(b *testing.B) *tables.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.N = benchN
		suiteVal, suiteErr = tables.Run(context.Background(), core.New(), cfg)
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suiteVal
}

func benchTable(b *testing.B, render func(*tables.Suite) string) {
	s := sharedSuite(b)
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = render(s)
	}
	if len(out) < 50 {
		b.Fatalf("table output too short:\n%s", out)
	}
	b.ReportMetric(float64(strings.Count(out, "\n")), "rows")
}

func BenchmarkTableI(b *testing.B)  { benchTable(b, (*tables.Suite).TableI) }
func BenchmarkTableII(b *testing.B) { benchTable(b, (*tables.Suite).TableII) }
func BenchmarkTableIII(b *testing.B) {
	benchTable(b, (*tables.Suite).TableIII)
}
func BenchmarkTableIV(b *testing.B) { benchTable(b, (*tables.Suite).TableIV) }
func BenchmarkTableV(b *testing.B)  { benchTable(b, (*tables.Suite).TableV) }
func BenchmarkTableHLS(b *testing.B) {
	benchTable(b, (*tables.Suite).TableHLS)
}
func BenchmarkFigure4(b *testing.B) { benchTable(b, (*tables.Suite).Figure4) }
func BenchmarkFigure5(b *testing.B) { benchTable(b, (*tables.Suite).Figure5) }
func BenchmarkFigure6(b *testing.B) { benchTable(b, (*tables.Suite).Figure6) }

// BenchmarkFigure3 regenerates the infeasible-superblock demonstration from
// scratch each iteration (profiling included).
func BenchmarkFigure3(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = tables.Figure3(core.New())
	}
	if !strings.Contains(out, "feasible=false") {
		b.Fatalf("figure 3 lost its point:\n%s", out)
	}
}

// BenchmarkFigure9 re-runs the full offload evaluation sweep per iteration
// and reports the paper's headline means.
func BenchmarkFigure9(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.N = benchN
	var braidMean, oracleMean float64
	for i := 0; i < b.N; i++ {
		s, err := tables.Run(context.Background(), core.New(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		braidMean, oracleMean = 0, 0
		for _, a := range s.Analyses {
			braidMean += a.BraidChoice.Result.Improvement
			oracleMean += a.PathOracle.Improvement
		}
		braidMean /= float64(len(s.Analyses))
		oracleMean /= float64(len(s.Analyses))
	}
	b.ReportMetric(braidMean*100, "braid-%")
	b.ReportMetric(oracleMean*100, "path-oracle-%")
}

// BenchmarkFigure10 reports the mean braid energy reduction.
func BenchmarkFigure10(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.N = benchN
	var energyMean float64
	for i := 0; i < b.N; i++ {
		s, err := tables.Run(context.Background(), core.New(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		energyMean = 0
		for _, a := range s.Analyses {
			energyMean += a.BraidChoice.Result.EnergyReduction
		}
		energyMean /= float64(len(s.Analyses))
	}
	b.ReportMetric(energyMean*100, "energy-%")
}

// BenchmarkSweep runs the full 29-workload analysis sweep per iteration:
// profile every workload (block, edge, and Ball-Larus path counts plus the
// path trace), pick paths and braids, build frames, and evaluate offload.
// This is the end-to-end number the compiled-plan fast path targets;
// scripts/bench.sh gates regressions against its checked-in baseline.
func BenchmarkSweep(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.N = benchN
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := tables.Run(context.Background(), core.New(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.Analyses) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkVet measures the static-analysis diagnostic suite (SCCP, value
// ranges, memory dependence, and the vet walk) over the whole workload set.
// scripts/bench.sh records it as vet_ns_per_op; its companion gate is the
// tightened sweep gate — vet's analyses are lazy and demand-computed, so a
// sweep that never asks for them must not pay for their existence.
func BenchmarkVet(b *testing.B) {
	ws := workloads.All()
	progs := make([]*program.Program, len(ws))
	for i, w := range ws {
		p, err := w.Program(benchN)
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			rep := vet.Check(nil, p)
			if rep.HasErrors() {
				b.Fatalf("workload %s has vet errors", p.Name)
			}
		}
	}
}

// BenchmarkSweepWarmStart measures the persistent artifact store's
// fresh-process warm-start win. "cold" runs the full sweep against an empty
// cache directory per iteration (every stage computed and persisted);
// "warm" opens a fresh DiskStore — empty memory tier, a new process's view —
// on a pre-populated directory per iteration, so every persisted stage
// (profile and select) is decoded off disk instead of recomputed, and the
// cheap inline and frame stages are recomputed around them. scripts/bench.sh
// records both and gates on the cold/warm ratio.
func BenchmarkSweepWarmStart(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.N = benchN
	ctx := context.Background()
	sweep := func(b *testing.B, store pipeline.Store) {
		b.Helper()
		as, err := core.New(core.WithStore(store)).RunAll(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(as) == 0 {
			b.Fatal("empty sweep")
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, err := os.MkdirTemp("", "needle-bench-cold-*")
			if err != nil {
				b.Fatal(err)
			}
			store, err := pipeline.NewDiskStore(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			sweep(b, store)
			b.StopTimer()
			os.RemoveAll(dir)
			b.StartTimer()
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir, err := os.MkdirTemp("", "needle-bench-warm-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		seed, err := pipeline.NewDiskStore(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		sweep(b, seed) // populate the directory once
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store, err := pipeline.NewDiskStore(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			sweep(b, store)
		}
	})
}

// inlineSink and selectSink keep BenchmarkStage/inline's and /select's
// artifacts alive, so the compiler cannot drop the allocations the real
// stages make.
var (
	inlineSink *pipeline.InlineArtifact
	selectSink *pipeline.SelectArtifact
)

// BenchmarkStage times single pipeline layers at the workloads' default
// sizes on the two workloads whose Ball-Larus path-ID spaces are sparse and
// large (186.crafty, 458.sjeng) and a dense one (164.gzip), each with every
// upstream artifact taken from a pre-warmed in-memory Cache. scripts/bench.sh
// records ns/op and allocs/op for each.
//
//   - inline and frame compute the two stages that are never persisted,
//     as a warm run recomputes them: inline runs passes.InlineAll on the
//     program and gives the result a fresh analysis manager; frame builds
//     the top braid's frame (frame.Build) under a fresh analysis manager,
//     so every analysis it reads is computed in the iteration;
//   - select computes the Select stage cold, as a cache miss does:
//     region.Characterize on the hot function under a fresh analysis
//     manager, plus region.BuildBraids on the profile;
//   - opt-decode, profile-decode and select-decode each run the stage's
//     codec decode (pipeline.Codec) on the bytes its encode stored, as a
//     warm disk hit does: the positional payload read, the function built
//     from arenas and verified (opt, whose pipeline runs with Opt on),
//     path-trace rehydration with every count and branch history derived
//     (profile, on 197.parser too) or braid rebuilds (select), under a
//     fresh analysis manager;
//   - target runs the sim and hls evaluations, so an iteration is the stage
//     itself plus the cache hits that feed it;
//   - replay is sim's Candidates.Replay alone, on a candidate table built
//     once outside the timer from the warm artifacts (164.gzip,
//     186.crafty and 197.parser, whose trace has the shortest runs of one
//     path): the trace replay the Target stage pays per run;
//   - capture is the Profile stage's cold compute: sim.Capture on the
//     Inline artifact's function over fresh copies of its args and memory,
//     sharing the artifact's analysis manager across iterations as
//     BenchmarkCapture does.
func BenchmarkStage(b *testing.B) {
	cfg := pipeline.DefaultConfig()
	names := []string{"186.crafty", "458.sjeng", "164.gzip"}
	optCfg := cfg
	optCfg.Opt = true
	// warm runs the pipeline under c once on a fresh Cache and returns the
	// options that serve every artifact from it.
	warm := func(b *testing.B, name string, c pipeline.Config) (*program.Program, pipeline.RunOptions, *pipeline.Artifacts) {
		b.Helper()
		p, err := workloads.ByName(name).Program(0)
		if err != nil {
			b.Fatal(err)
		}
		opts := pipeline.RunOptions{Store: pipeline.NewCache()}
		a, err := pipeline.Run(p, c, opts)
		if err != nil {
			b.Fatal(err)
		}
		return p, opts, a
	}
	// decodeRow times one stage's codec decode of its stored bytes. Each
	// iteration gives the upstream inline artifact a fresh analysis manager,
	// as a recomputed one has, so no analysis is served from an earlier one.
	decodeRow := func(stage string, c pipeline.Config, names []string, out func(a *pipeline.Artifacts) any) func(b *testing.B) {
		return func(b *testing.B) {
			for _, name := range names {
				b.Run(name, func(b *testing.B) {
					_, _, a := warm(b, name, c)
					encode, decode, ok := pipeline.Codec(stage)
					if !ok {
						b.Fatalf("no codec for stage %s", stage)
					}
					data, err := encode(a, out(a))
					if err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						in := *a.Inline
						in.AM = pm.NewManager()
						up := *a
						up.Inline = &in
						if _, err := decode(&up, data); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
	b.Run("inline", func(b *testing.B) {
		for _, name := range names {
			b.Run(name, func(b *testing.B) {
				p, _, _ := warm(b, name, cfg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f, err := passes.InlineAll(p.F)
					if err != nil {
						b.Fatal(err)
					}
					inlineSink = &pipeline.InlineArtifact{AM: pm.NewManager(), F: f, Args: p.Args, Memory: p.Memory}
				}
			})
		}
	})
	b.Run("opt-decode", decodeRow("opt", optCfg, names, func(a *pipeline.Artifacts) any { return a.Opt }))
	b.Run("profile-decode", decodeRow("profile", cfg, append(names, "197.parser"), func(a *pipeline.Artifacts) any { return a.Profile }))
	b.Run("select-decode", decodeRow("select", cfg, names, func(a *pipeline.Artifacts) any { return a.Select }))
	b.Run("select", func(b *testing.B) {
		for _, name := range names {
			b.Run(name, func(b *testing.B) {
				_, _, a := warm(b, name, cfg)
				_, f := a.HotFunc()
				fp := a.Profile.Trace.Profile
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					selectSink = &pipeline.SelectArtifact{
						CFStats: region.Characterize(pm.NewManager(), f),
						Braids:  region.BuildBraids(fp, 0),
					}
				}
			})
		}
	})
	b.Run("frame", func(b *testing.B) {
		for _, name := range names {
			b.Run(name, func(b *testing.B) {
				_, _, a := warm(b, name, cfg)
				if len(a.Select.Braids) == 0 {
					b.Fatalf("%s formed no braid to frame", name)
				}
				hot := &a.Select.Braids[0].Region
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := frame.Build(pm.NewManager(), hot, a.Config.Sim.Frame); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
	b.Run("target", func(b *testing.B) {
		for _, name := range names {
			b.Run(name, func(b *testing.B) {
				p, opts, _ := warm(b, name, cfg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a, err := pipeline.Run(p, cfg, opts)
					if err != nil {
						b.Fatal(err)
					}
					if a.Target.PathOracle.BaselineCycles == 0 {
						b.Fatal("no target results")
					}
				}
			})
		}
	})
	b.Run("replay", func(b *testing.B) {
		for _, name := range []string{"164.gzip", "186.crafty", "197.parser"} {
			b.Run(name, func(b *testing.B) {
				_, _, a := warm(b, name, cfg)
				c := a.Config
				cands, err := sim.NewCandidates(a.Profile.Trace, a.Select.Braids, a.Frame.HotBraidFrame, c.Sim, c.SelectTopK, c.ColdFraction)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cands.Replay()
				}
			})
		}
	})
	b.Run("capture", func(b *testing.B) {
		for _, name := range names {
			b.Run(name, func(b *testing.B) {
				_, _, a := warm(b, name, cfg)
				in := a.Inline
				args := make([]uint64, len(in.Args))
				work := make([]uint64, len(in.Memory))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(args, in.Args)
					copy(work, in.Memory)
					if _, err := sim.Capture(in.AM, in.F, args, work, a.Config.Sim); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// ---- micro-benchmarks of the pipeline building blocks ----

// BenchmarkIngest times what needled does with a program it is sent, over
// irgen programs of seeds 1 to 16 in the shape the benchmark's
// serve-nir-cold workload sends, one per iteration:
//   - parse is ir.Parse of the text, verification included;
//   - load is program.Load, the whole ingestion of one request: parse,
//     instruction cap, arguments and memory image;
//   - digest is the content digest of a loaded program with a 1024-word
//     memory image, on a fresh Program each iteration (one allocation of
//     the row is that Program).
func BenchmarkIngest(b *testing.B) {
	shape := irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}
	opts := program.LoadOptions{MemWords: shape.MemWords, Args: []string{"5"}}
	srcs := make([]string, 16)
	progs := make([]*program.Program, len(srcs))
	for i := range srcs {
		srcs[i] = ir.Print(irgen.Generate(int64(i+1), shape).F)
		p, err := program.Load(srcs[i], opts)
		if err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ir.Parse(srcs[i%len(srcs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := program.Load(srcs[i%len(srcs)], opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("digest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p := progs[i%len(progs)]
			fresh := &program.Program{Name: p.Name, Suite: p.Suite, F: p.F, Args: p.Args, Memory: p.Memory}
			if fresh.Digest() != p.Digest() {
				b.Fatal("digest is not deterministic")
			}
		}
	})
}

// BenchmarkAnalysis times each per-function analysis needled recomputes
// for every program it is sent (analysisRows), over the inlined irgen
// programs of seeds 1 to 16 in the serve-nir-cold shape, one per
// iteration.
func BenchmarkAnalysis(b *testing.B) {
	ins := make([]analysisInput, 16)
	for i := range ins {
		ins[i] = poolInput(b, int64(i+1))
	}
	for _, row := range analysisRows {
		runs := make([]func(), len(ins))
		for i, in := range ins {
			runs[i] = row.prepare(in)
		}
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runs[i%len(runs)]()
			}
		})
	}
}

// BenchmarkCapture measures the system-simulator capture alone — the
// compiled interpreter fast path feeding the OOO model one block-batched
// timing packet per executed block — on the heaviest workload. The analysis
// manager is shared across iterations so plan compilation is cached and the
// loop isolates steady-state capture cost; scripts/bench.sh records this as
// capture_ns_per_op and gates it against the checked-in baseline.
func BenchmarkCapture(b *testing.B) {
	w := workloads.ByName("456.hmmer")
	f, args, memory := w.Instance(2000)
	am := pm.NewManager()
	cfg := sim.DefaultConfig()
	work := make([]uint64, len(memory))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, memory)
		tr, err := sim.Capture(am, f, args, work, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if tr.BaselineCycles == 0 {
			b.Fatal("capture produced no cycles")
		}
	}
}

// BenchmarkInterpreter measures raw interpretation throughput.
func BenchmarkInterpreter(b *testing.B) {
	w := workloads.ByName("456.hmmer")
	f, args, memory := w.Instance(2000)
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		work := make([]uint64, len(memory))
		copy(work, memory)
		res, err := oracle.Run(f, args, work, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps), "instrs/run")
}

// BenchmarkPathProfiling measures Ball-Larus profiling overhead on top of
// interpretation.
func BenchmarkPathProfiling(b *testing.B) {
	w := workloads.ByName("456.hmmer")
	f, args, memory := w.Instance(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make([]uint64, len(memory))
		copy(work, memory)
		if _, err := profile.CollectFunction(nil, f, args, work, false, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPathDecode measures path-ID decoding into a reused buffer.
func BenchmarkPathDecode(b *testing.B) {
	f := workloads.ByName("186.crafty").Function()
	dag, err := ballarus.Build(nil, f)
	if err != nil {
		b.Fatal(err)
	}
	n := dag.NumPaths()
	var buf []*ir.Block
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = dag.DecodeAppend(buf[:0], int64(i)%n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBraidConstruction measures braid formation on a rich profile.
func BenchmarkBraidConstruction(b *testing.B) {
	w := workloads.ByName("453.povray")
	f, args, memory := w.Instance(3000)
	fp, err := profile.CollectFunction(nil, f, args, memory, true, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if braids := region.BuildBraids(fp, 0); len(braids) == 0 {
			b.Fatal("no braids")
		}
	}
}

// BenchmarkFrameBuild measures software frame construction.
func BenchmarkFrameBuild(b *testing.B) {
	w := workloads.ByName("470.lbm")
	f, args, memory := w.Instance(500)
	fp, err := profile.CollectFunction(nil, f, args, memory, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	r := region.FromPath(f, fp.HottestPath())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := frame.Build(nil, r, frame.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCGRASchedule measures dataflow scheduling of a large frame.
func BenchmarkCGRASchedule(b *testing.B) {
	w := workloads.ByName("swaptions")
	f, args, memory := w.Instance(1000)
	fp, err := profile.CollectFunction(nil, f, args, memory, false, 0)
	if err != nil {
		b.Fatal(err)
	}
	fr, err := frame.Build(nil, region.FromPath(f, fp.HottestPath()), frame.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cgra.Schedule(fr, cgra.DefaultConfig())
		if s.DataflowCycles == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// blockStream is a timed run's dynamic stream as the host model receives
// it: the executed blocks' timing packets in order, the branch outcome
// noted after each (-1 for none), and the memory addresses of every fed
// memory entry. It implements interp.Timing to record the stream once, so a
// benchmark can replay it through the model with no interpreter in the timer.
type blockStream struct {
	pks   []*interp.TimingPacket
	taken []int8
	addrs []int64
}

func (s *blockStream) FeedBlock(pk *interp.TimingPacket, n int, addrs []int64) {
	s.pks = append(s.pks, pk)
	s.taken = append(s.taken, -1)
	s.addrs = append(s.addrs, addrs[:pk.NumMem]...)
}

func (s *blockStream) NoteBranch(taken bool) {
	s.taken[len(s.taken)-1] = 0
	if taken {
		s.taken[len(s.taken)-1] = 1
	}
}

func (s *blockStream) EndPath(int64) {}

// recordStream captures workload name's block stream at size n on its
// inlined function, the function the pipeline captures.
func recordStream(b *testing.B, name string, n int) (*blockStream, int) {
	b.Helper()
	f, args, memory := workloads.ByName(name).Instance(n)
	f, err := passes.InlineAll(f)
	if err != nil {
		b.Fatal(err)
	}
	c, err := profile.NewCollector(nil, f, false)
	if err != nil {
		b.Fatal(err)
	}
	s := &blockStream{}
	if _, err := c.RunTimed(args, memory, interp.PlanOpts{Timing: s}); err != nil {
		b.Fatal(err)
	}
	return s, f.NumRegs()
}

// replay feeds the stream to m as a timed run does: FeedBlock per block,
// then the block's branch outcome.
func (s *blockStream) replay(m *ooo.Model) {
	addrs := s.addrs
	for i, pk := range s.pks {
		m.FeedBlock(pk, pk.Len(), addrs)
		addrs = addrs[pk.NumMem:]
		if t := s.taken[i]; t >= 0 {
			m.NoteBranch(t == 1)
		}
	}
}

// BenchmarkOOOModel measures the host timing model's streaming throughput:
// 183.equake's recorded block stream replayed through FeedBlock and
// NoteBranch.
func BenchmarkOOOModel(b *testing.B) {
	s, numRegs := recordStream(b, "183.equake", 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.replay(ooo.New(ooo.DefaultConfig(), numRegs, mem.New(mem.Config{})))
	}
}

// ---- ablation benchmarks (design choices from DESIGN.md) ----

func captureFor(b *testing.B, name string, n int) *sim.Trace {
	b.Helper()
	w := workloads.ByName(name)
	f, args, memory := w.Instance(n)
	tr, err := sim.Capture(nil, f, args, memory, sim.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkAblationGuardPlacement compares async guards (full hoisting)
// against serialized guards on the hottest lbm path frame.
func BenchmarkAblationGuardPlacement(b *testing.B) {
	tr := captureFor(b, "470.lbm", 500)
	r := region.FromPath(tr.Profile.F, tr.Profile.HottestPath())
	for _, pc := range []struct {
		name string
		p    frame.GuardPlacement
	}{{"async", frame.GuardsAsync}, {"serialize", frame.GuardsSerialize}} {
		b.Run(pc.name, func(b *testing.B) {
			var cp int
			for i := 0; i < b.N; i++ {
				fr, err := frame.Build(nil, r, frame.Options{Placement: pc.p})
				if err != nil {
					b.Fatal(err)
				}
				cp = fr.CriticalPath()
			}
			b.ReportMetric(float64(cp), "critical-path")
		})
	}
}

// BenchmarkAblationMemOrdering compares speculative versus conservative
// in-frame memory ordering (the paper's full memory speculation claim).
func BenchmarkAblationMemOrdering(b *testing.B) {
	tr := captureFor(b, "470.lbm", 500)
	r := region.FromPath(tr.Profile.F, tr.Profile.HottestPath())
	for _, mo := range []struct {
		name string
		o    frame.MemOrdering
	}{{"speculative", frame.MemSpeculative}, {"conservative", frame.MemConservative}} {
		b.Run(mo.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				fr, err := frame.Build(nil, r, frame.Options{Ordering: mo.o})
				if err != nil {
					b.Fatal(err)
				}
				cycles = cgra.Schedule(fr, cgra.DefaultConfig()).DataflowCycles
			}
			b.ReportMetric(float64(cycles), "dataflow-cycles")
		})
	}
}

// BenchmarkAblationPredictor sweeps the invocation predictor's history
// depth — a knob only the pipeline's Target stage reads — across the full
// pipeline, fresh versus through a shared artifact cache. The fresh/cached
// ratio is the staged pipeline's reuse win: with a cache, the sweep inlines
// and profiles bodytrack once and re-evaluates only the predictor per
// configuration. scripts/bench.sh records both and gates on the ratio.
func BenchmarkAblationPredictor(b *testing.B) {
	w := workloads.ByName("bodytrack")
	histBits := []uint{2, 4, 8, 12, 16}
	// store is an interface so "fresh" passes an untyped nil: a nil
	// *pipeline.Cache would make a non-nil Store that pipeline.Run calls.
	sweep := func(b *testing.B, store pipeline.Store) float64 {
		b.Helper()
		az := core.New(core.WithStore(store))
		var imp float64
		for _, hb := range histBits {
			cfg := core.DefaultConfig()
			cfg.N = 2000
			cfg.Sim.HistBits = hb
			a, err := az.RunWorkload(context.Background(), w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			imp = a.PathHistory.Improvement
		}
		return imp
	}
	b.Run("fresh", func(b *testing.B) {
		var imp float64
		for i := 0; i < b.N; i++ {
			imp = sweep(b, nil)
		}
		b.ReportMetric(imp*100, "improvement-%")
	})
	b.Run("cached", func(b *testing.B) {
		cache := pipeline.NewCache()
		sweep(b, cache) // warm: the gate measures the steady reuse state
		b.ResetTimer()
		var imp float64
		for i := 0; i < b.N; i++ {
			imp = sweep(b, cache)
		}
		b.ReportMetric(imp*100, "improvement-%")
	})
}

// BenchmarkAblationPredictorPolicy compares invocation policies on a noisy
// workload (bodytrack) where prediction decides profitability.
func BenchmarkAblationPredictorPolicy(b *testing.B) {
	tr := captureFor(b, "bodytrack", 2000)
	cfg := sim.DefaultConfig()
	tgt, err := sim.NewPathTarget(nil, tr.Profile, tr.Profile.HottestPath(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	preds := []struct {
		name string
		mk   func() spec.Predictor
	}{
		{"always", func() spec.Predictor { return spec.Always{} }},
		{"history", func() spec.Predictor { return spec.NewHistory(12) }},
		{"oracle", func() spec.Predictor { return &spec.Oracle{} }},
	}
	for _, pd := range preds {
		b.Run(pd.name, func(b *testing.B) {
			var imp float64
			for i := 0; i < b.N; i++ {
				res := sim.Evaluate(tr, []sim.Lane{{Target: tgt, Pred: pd.mk()}}, cfg)[0]
				imp = res.Improvement
			}
			b.ReportMetric(imp*100, "improvement-%")
		})
	}
}

// BenchmarkAblationBraidMergeBound compares unlimited merging against
// merging only the top 2 paths per braid.
func BenchmarkAblationBraidMergeBound(b *testing.B) {
	tr := captureFor(b, "453.povray", 2000)
	for _, bound := range []struct {
		name string
		k    int
	}{{"unbounded", 0}, {"top2", 2}} {
		b.Run(bound.name, func(b *testing.B) {
			var cov float64
			for i := 0; i < b.N; i++ {
				braids := region.BuildBraids(tr.Profile, bound.k)
				cov = braids[0].Coverage(tr.Profile)
			}
			b.ReportMetric(cov*100, "coverage-%")
		})
	}
}

// BenchmarkAblationUndoCost sweeps the undo-log overhead per store.
func BenchmarkAblationUndoCost(b *testing.B) {
	tr := captureFor(b, "456.hmmer", 2000)
	r := region.FromPath(tr.Profile.F, tr.Profile.HottestPath())
	for _, undo := range []int{1, 2, 4} {
		name := []string{"", "light", "default", "", "heavy"}[undo]
		b.Run(name, func(b *testing.B) {
			var invoke int64
			for i := 0; i < b.N; i++ {
				fr, err := frame.Build(nil, r, frame.Options{UndoOpsPerStore: undo})
				if err != nil {
					b.Fatal(err)
				}
				invoke = cgra.Schedule(fr, cgra.DefaultConfig()).InvokeCycles()
			}
			b.ReportMetric(float64(invoke), "invoke-cycles")
		})
	}
}

// BenchmarkAblationPathExpansion measures Section IV-A target expansion:
// cycles per loop iteration of a cold invocation shrink as more path
// instances are sequenced into one offload unit.
func BenchmarkAblationPathExpansion(b *testing.B) {
	tr := captureFor(b, "183.equake", 1000)
	r := region.FromPath(tr.Profile.F, tr.Profile.HottestPath())
	base, err := frame.Build(nil, r, frame.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, unroll := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("x%d", unroll), func(b *testing.B) {
			var perIter float64
			for i := 0; i < b.N; i++ {
				ex, err := frame.Expand(base, unroll)
				if err != nil {
					b.Fatal(err)
				}
				s := cgra.Schedule(ex, cgra.DefaultConfig())
				perIter = float64(s.InvokeCycles()) / float64(unroll)
			}
			b.ReportMetric(perIter, "cycles/iter")
		})
	}
}

// BenchmarkAblationRankingMetric compares the paper's frequency-times-ops
// path weight against pure frequency ranking: the Pwt pick must cover at
// least as much dynamic execution.
func BenchmarkAblationRankingMetric(b *testing.B) {
	tr := captureFor(b, "453.povray", 2000)
	fp := tr.Profile
	var covWeight, covFreq float64
	for i := 0; i < b.N; i++ {
		covWeight = fp.HottestPath().Coverage(fp)
		best := fp.Paths[0]
		for _, p := range fp.Paths {
			if p.Freq > best.Freq {
				best = p
			}
		}
		covFreq = best.Coverage(fp)
	}
	b.ReportMetric(covWeight*100, "Pwt-coverage-%")
	b.ReportMetric(covFreq*100, "freq-coverage-%")
	if covWeight < covFreq-1e-9 {
		b.Fatal("weight ranking must not lose to frequency ranking on coverage")
	}
}

// BenchmarkFigure2 regenerates the design-space comparison (non-speculative
// hyperblock vs speculative path/braid offload).
func BenchmarkFigure2(b *testing.B) { benchTable(b, (*tables.Suite).Figure2) }

// BenchmarkAblationHostBranchPredictor compares the paper's perfect-BP host
// baseline against a gshare host: a weaker host makes offload look better,
// which is why the paper's conservative choice matters.
func BenchmarkAblationHostBranchPredictor(b *testing.B) {
	s, numRegs := recordStream(b, "186.crafty", 3000)
	for _, pc := range []struct {
		name string
		real bool
	}{{"perfect", false}, {"gshare", true}} {
		b.Run(pc.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig()
				cfg.RealBranchPredictor = pc.real
				m := ooo.New(cfg, numRegs, mem.New(mem.Config{}))
				s.replay(m)
				cycles = m.Cycles()
			}
			b.ReportMetric(float64(cycles), "host-cycles")
		})
	}
}

// BenchmarkAblationRouting compares placement-derived routing energy with
// the optimistic uniform one-hop assumption.
func BenchmarkAblationRouting(b *testing.B) {
	tr := captureFor(b, "456.hmmer", 2000)
	fr, err := frame.Build(nil, region.FromPath(tr.Profile.F, tr.Profile.HottestPath()), frame.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, rc := range []struct {
		name    string
		uniform bool
	}{{"placed", false}, {"uniform", true}} {
		b.Run(rc.name, func(b *testing.B) {
			cfg := cgra.DefaultConfig()
			cfg.UniformRouting = rc.uniform
			var opPJ float64
			for i := 0; i < b.N; i++ {
				opPJ = cgra.Schedule(fr, cfg).OpPJ
			}
			b.ReportMetric(opPJ, "pJ/op")
		})
	}
}

// BenchmarkAblationMergePolicy compares the paper's braid policy (shared
// entry AND exit) against DySER-style path trees (shared entry only):
// trees buy coverage at the cost of multiple exits and live-out sets.
func BenchmarkAblationMergePolicy(b *testing.B) {
	tr := captureFor(b, "175.vpr", 2000)
	for _, pol := range []struct {
		name  string
		build func() []*region.Braid
	}{
		{"braid", func() []*region.Braid { return region.BuildBraids(tr.Profile, 0) }},
		{"path-tree", func() []*region.Braid { return region.BuildPathTrees(tr.Profile, 0) }},
	} {
		b.Run(pol.name, func(b *testing.B) {
			var cov float64
			var exits int
			for i := 0; i < b.N; i++ {
				top := pol.build()[0]
				cov = top.Coverage(tr.Profile)
				exits = top.LiveOutSpread()
			}
			b.ReportMetric(cov*100, "coverage-%")
			b.ReportMetric(float64(exits), "exit-blocks")
		})
	}
}
