package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"needle/internal/core"
	"needle/internal/frame"
	"needle/internal/ir"
	"needle/internal/pipeline"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/program"
	"needle/internal/region"
	"needle/internal/sim"
	"needle/internal/vet"
	"needle/internal/workloads"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run, the same on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"analyses_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mib_per_op", "MiB", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"success_rate", "ratio", "higher"},
}

// cacheStages are the pipeline stages a store serves (opt is off by
// default and skipped; target is never cached).
var cacheStages = []string{"inline", "profile", "select", "frame"}

// perLayer are the metrics of the traced run. A metric that does not apply
// to a workload (say, serve.admit_ms_p50 on a sweep) reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workloads.program_ms", "ms", "lower"},
		{"program.load_ms", "ms", "lower"},
	}
	for _, st := range cacheStages {
		defs = append(defs, metricDef{"pipeline." + st + "_ms", "ms", "lower"})
	}
	defs = append(defs, metricDef{"pipeline.target_ms", "ms", "lower"})
	for _, st := range cacheStages {
		defs = append(defs, metricDef{"pipeline.hit_ratio." + st, "ratio", "higher"})
	}
	defs = append(defs, metricDef{"pipeline.hit_us", "us", "lower"})
	for _, st := range cacheStages {
		defs = append(defs, metricDef{"pipeline.decode_ms." + st, "ms", "lower"})
	}
	return append(defs, []metricDef{
		{"pipeline.retained_kib_per_op", "KiB", "lower"},
		{"profile.collect_ms", "ms", "lower"},
		{"profile.collect_ms.crafty", "ms", "lower"},
		{"profile.collect_ms.sjeng", "ms", "lower"},
		{"ooo.timing_ms", "ms", "lower"},
		{"ooo.timing_ms.crafty", "ms", "lower"},
		{"ooo.timing_ms.sjeng", "ms", "lower"},
		{"interp.instrs", "count", "lower"},
		{"interp.ns_per_instr", "ns", "lower"},
		{"sim.occurrences", "count", "lower"},
		{"region.characterize_ms", "ms", "lower"},
		{"region.braids_ms", "ms", "lower"},
		{"frame.build_ms", "ms", "lower"},
		{"target.sim_ms", "ms", "lower"},
		{"target.cgra_ms", "ms", "lower"},
		{"target.hls_ms", "ms", "lower"},
		{"target.energy_ms", "ms", "lower"},
		{"target.sim_ns_per_occurrence", "ns", "lower"},
		{"core.summary_us", "us", "lower"},
		{"serve.admit_ms_p50", "ms", "lower"},
		{"serve.overhead_ms_p50", "ms", "lower"},
		{"vet.check_ms", "ms", "lower"},
		{"pm.misses_per_op", "count", "lower"},
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"runtime.gc_cycles_per_op", "count", "lower"},
		{"host.steal_frac", "ratio", "lower"},
		{"bench.trace_overhead_frac", "ratio", "lower"},
	}...)
}()

// inProcessOps bounds the in-process replay of the traced run.
const inProcessOps = 145

// probePrograms bounds how many serve-nir-cold programs the decomposition
// probes time.
const probePrograms = 32

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runLayers is the traced run. It runs the workload untraced, then again
// with every store behind the timing wrapper and the benchmark's spans,
// then calls each layer's public functions on the same inputs.
func runLayers(sp *spec, env *runEnv, ops int) (*result, error) {
	ticks0 := readTicks()

	// Untraced phase: the baseline for the trace overhead and the serve
	// overhead, and the GC figures.
	b, _, err := setUp(sp, env, ops)
	if err != nil {
		return nil, err
	}
	plain := measure(b, sp, ops)
	err = verifyInto(b, plain)
	b.close()
	if err != nil {
		return nil, err
	}
	runtime.GC()

	// Traced phase.
	ts := newTimingStore(pipeline.NewCache())
	tenv := *env
	tenv.ts = ts
	if b, _, err = setUp(sp, &tenv, ops); err != nil {
		return nil, err
	}
	defer b.close()
	ts.reset()
	traced := measure(b, sp, ops)
	if err := verifyInto(b, traced); err != nil {
		return nil, err
	}
	lookups := ts.lookups()

	n := float64(ops)
	failed := plain.failures() + traced.failures()
	res := newResult(sp, env.seed, 2*ops, failed, 0)
	plainP50 := median(plain.okLatencies())
	tracedP50 := median(traced.okLatencies())
	res.tail = "none"
	res.notes = append(res.notes, fmt.Sprintf("latency p50 untraced %.4g ms, traced %.4g ms", plainP50, tracedP50))

	// Store lookups, seen through the timing wrapper.
	ts.mu.Lock()
	for _, st := range cacheStages {
		s := ts.stages[st]
		if s == nil {
			s = &stageTimes{}
		}
		res.add("pipeline."+st+"_ms", ms(s.compute)/n, s.computes)
		res.add("pipeline.decode_ms."+st, safeDiv(ms(s.diskHit), float64(s.diskHits)), s.diskHits)
		// A disk hit is a memory-tier miss served from disk.
		d := lookups[st]
		res.add("pipeline.hit_ratio."+st, safeDiv(float64(d.Hits+d.DiskHits), float64(d.Hits+d.Misses)), int(d.Hits+d.Misses))
	}
	admits := make([]float64, len(ts.admits))
	for i, d := range ts.admits {
		admits[i] = ms(d)
	}
	ts.mu.Unlock()
	// From the untraced phase: the traced one also keeps its spans.
	res.add("pipeline.retained_kib_per_op", float64(plain.retained)/1024/n, ops)
	// Before the in-process replays below, which go through the same
	// wrapper and would add their own managers.
	res.add("pm.misses_per_op", float64(ts.pmMisses())/n, ops)

	// Target time, memory hits and the serve overhead, from in-process
	// pipeline runs.
	targets, inProc := replay(b, ts, env.cfg)
	res.add("pipeline.target_ms", meanMS(targets), len(targets))
	ts.mu.Lock()
	var hit time.Duration
	var hits int
	for _, s := range ts.stages {
		hit += s.memHit
		hits += s.memHits
	}
	ts.mu.Unlock()
	res.add("pipeline.hit_us", safeDiv(float64(hit.Nanoseconds())/1e3, float64(hits)), hits)

	if err := probe(res, b, env.cfg); err != nil {
		return nil, err
	}

	if _, ok := b.(*serveNIR); ok {
		res.add("serve.admit_ms_p50", median(admits), len(admits))
		res.add("serve.overhead_ms_p50", plainP50-median(inProc), len(inProc))
	} else {
		res.add("serve.admit_ms_p50", 0, 0)
		res.add("serve.overhead_ms_p50", 0, 0)
	}
	res.add("runtime.gc_cpu_frac", safeDiv(plain.rt.gcCPU, plain.rt.totalCPU), ops)
	res.add("runtime.gc_cycles_per_op", float64(plain.rt.numGC)/n, ops)
	res.steal = stealFrac(ticks0, readTicks())
	res.add("host.steal_frac", res.steal, 1)
	res.add("bench.trace_overhead_frac", safeDiv(tracedP50, plainP50)-1, ops)

	for _, d := range perLayer {
		if _, ok := res.values[d.name]; !ok {
			return nil, fmt.Errorf("traced run did not produce %s", d.name)
		}
	}
	res.notes = append(res.notes, "serve.collapsed_frac not measured: no workload sends identical requests concurrently, so it would read 0 by construction")
	self := ts.tr.selfTimes()
	for _, name := range sortedKeys(self) {
		res.notes = append(res.notes, fmt.Sprintf("span self time %-18s %10.1f ms", name, ms(self[name])))
	}
	if err := ts.tr.write(filepath.Join(env.dir, "spans-"+sp.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func meanMS(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return safeDiv(ms(sum), float64(len(ds)))
}

// replay runs the start of the workload's op sequence again in process,
// through the timing wrapper, and returns each run's Target time (pipeline
// run minus its Store.Do time) and, on serve-nir-cold, the in-process
// latency of what one op asks the server for: vet.Check and a
// core.Analyzer run, both encoded. The disk sweep replays against its last
// pass's store, whose memory tier that pass filled, so its lookups are
// memory hits; its Target times come from the traced ops themselves, which
// hit on disk. serve-nir-cold replays against a new empty store, so every
// stage misses as in the timed ops.
func replay(b bench, ts *timingStore, cfg core.Config) (targets []time.Duration, lat []float64) {
	var progs []*program.Program
	switch b := b.(type) {
	case *sweep:
		targets = b.targets
		for _, i := range b.order[:min(len(b.order), inProcessOps)] {
			progs = append(progs, b.progs[i])
		}
	case *serveNIR:
		cfg = sourceConfig()
		ts.setInner(pipeline.NewCache())
		for _, q := range b.reqs[:min(len(b.reqs), inProcessOps)] {
			p, err := b.load(q)
			if err != nil {
				continue
			}
			progs = append(progs, p)
		}
	}
	az := core.New(core.WithStore(ts))
	_, nir := b.(*serveNIR)
	for i, p := range progs {
		start := time.Now()
		var err error
		if nir {
			_, err = vet.MarshalReport(vet.Check(nil, p))
		}
		o := ts.begin(p.Key(), i, "in-process")
		run := time.Now()
		a, rerr := az.Run(context.Background(), p, cfg)
		runTime := time.Since(run)
		if err == nil {
			err = rerr
		}
		if err == nil {
			_, err = summaryBytes(a)
		}
		total := time.Since(start)
		ts.end(p.Key(), o)
		if err != nil || !nir {
			continue
		}
		targets = append(targets, runTime-o.doTime)
		lat = append(lat, ms(total))
	}
	return targets, lat
}

// probeInput is one program the decomposition probes run on.
type probeInput struct {
	p      *program.Program
	src    string   // the source the program loads from
	args   []string // its argument literals
	memory int
	cfg    core.Config
}

// probeInputs returns the workload's programs: the 29 built-in workloads
// (loaded back from their printed module, with zero arguments, for the
// load timing), or a sample of serve-nir-cold's requests.
func probeInputs(b bench, cfg core.Config) ([]probeInput, error) {
	if nb, ok := b.(*serveNIR); ok {
		var out []probeInput
		for _, q := range nb.reqs[:min(len(nb.reqs), probePrograms)] {
			p, err := nb.load(q)
			if err != nil {
				return nil, err
			}
			out = append(out, probeInput{p: p, src: nb.pool[q.prog].src, args: q.args(), memory: nirShape.MemWords, cfg: sourceConfig()})
		}
		return out, nil
	}
	progs, err := materialize()
	if err != nil {
		return nil, err
	}
	out := make([]probeInput, len(progs))
	for i, p := range progs {
		out[i] = probeInput{p: p, src: ir.PrintModule(ir.ModuleOf(p.F)), memory: len(p.Memory), cfg: cfg}
	}
	return out, nil
}

// probe calls each layer's public functions directly on the workload's
// programs and adds the per-program mean of each timing.
func probe(res *result, b bench, cfg core.Config) error {
	start := time.Now()
	if _, err := materialize(); err != nil {
		return err
	}
	res.add("workloads.program_ms", ms(time.Since(start))/float64(len(workloads.All())), len(workloads.All()))

	inputs, err := probeInputs(b, cfg)
	if err != nil {
		return err
	}
	var (
		load, collect, capture, characterize, braids, build, summary, check time.Duration
		steps, occ                                                          int64
		backend                                                             = make(map[string]time.Duration)
		frames                                                              int
	)
	for _, in := range inputs {
		t := time.Now()
		if _, err := program.Load(in.src, program.LoadOptions{MemWords: in.memory, Args: in.args}); err != nil {
			return fmt.Errorf("probe %s: load: %w", in.p.Name, err)
		}
		load += time.Since(t)

		t = time.Now()
		vet.Check(nil, in.p)
		check += time.Since(t)

		st := pipeline.NewCache()
		arts, err := pipeline.Run(in.p, in.cfg, pipeline.RunOptions{Store: st})
		if err != nil {
			return fmt.Errorf("probe %s: %w", in.p.Name, err)
		}
		am, f := arts.HotFunc()
		simCfg := arts.Config.Sim

		// Capture split: the collector alone (interpreter + Ball–Larus),
		// then the whole capture; the difference is the OOO/cache model.
		t = time.Now()
		c, err := profile.NewCollector(am, f, true)
		if err != nil {
			return err
		}
		r, err := c.Run(clone(arts.Inline.Args), clone(arts.Inline.Memory), simCfg.MaxSteps)
		if err != nil {
			return err
		}
		col := time.Since(t)
		t = time.Now()
		tr, err := sim.Capture(am, f, clone(arts.Inline.Args), clone(arts.Inline.Memory), simCfg)
		if err != nil {
			return err
		}
		capt := time.Since(t)
		collect += col
		capture += capt
		steps += r.Steps
		occ += int64(len(tr.Occ))
		for _, long := range []string{"186.crafty", "458.sjeng"} {
			if in.p.Name == long {
				short := long[4:]
				res.add("profile.collect_ms."+short, ms(col), 1)
				res.add("ooo.timing_ms."+short, ms(capt-col), 1)
			}
		}

		// Region and frame layers, each on a fresh analysis manager so the
		// timing includes the analyses the layer pulls.
		t = time.Now()
		region.Characterize(pm.NewManager(), f)
		characterize += time.Since(t)
		t = time.Now()
		bs := region.BuildBraids(arts.Profile.Trace.Profile, 0)
		braids += time.Since(t)
		if len(bs) > 0 {
			t = time.Now()
			_, _ = frame.Build(pm.NewManager(), &bs[0].Region, simCfg.Frame)
			build += time.Since(t)
			frames++
		}

		for _, be := range pipeline.Backends() {
			t = time.Now()
			if _, err := be.Evaluate(arts); err != nil {
				return fmt.Errorf("probe %s: target %s: %w", in.p.Name, be.Name(), err)
			}
			backend[be.Name()] += time.Since(t)
		}

		a, err := core.New(core.WithStore(st)).Run(context.Background(), in.p, in.cfg)
		if err != nil {
			return err
		}
		t = time.Now()
		core.Summarize(a)
		if _, err := core.MarshalSummaries([]*core.Analysis{a}); err != nil {
			return err
		}
		summary += time.Since(t)
	}

	k := float64(len(inputs))
	res.add("program.load_ms", ms(load)/k, len(inputs))
	res.add("profile.collect_ms", ms(collect)/k, len(inputs))
	res.add("ooo.timing_ms", ms(capture-collect)/k, len(inputs))
	res.add("interp.instrs", float64(steps)/k, len(inputs))
	res.add("interp.ns_per_instr", safeDiv(float64(capture.Nanoseconds()), float64(steps)), len(inputs))
	res.add("sim.occurrences", float64(occ)/k, len(inputs))
	res.add("region.characterize_ms", ms(characterize)/k, len(inputs))
	res.add("region.braids_ms", ms(braids)/k, len(inputs))
	res.add("frame.build_ms", safeDiv(ms(build), float64(frames)), frames)
	for _, name := range []string{"sim", "cgra", "hls", "energy"} {
		res.add("target."+name+"_ms", ms(backend[name])/k, len(inputs))
	}
	res.add("target.sim_ns_per_occurrence", safeDiv(float64(backend["sim"].Nanoseconds()), float64(occ)), len(inputs))
	res.add("core.summary_us", float64(summary.Nanoseconds())/1e3/k, len(inputs))
	res.add("vet.check_ms", ms(check)/k, len(inputs))
	for _, name := range []string{"crafty", "sjeng"} {
		for _, m := range []string{"profile.collect_ms.", "ooo.timing_ms."} {
			if _, ok := res.values[m+name]; !ok {
				res.add(m+name, 0, 0)
			}
		}
	}
	return nil
}

func clone(xs []uint64) []uint64 { return append([]uint64(nil), xs...) }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
