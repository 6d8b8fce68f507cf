// Command needlebench is the repository's end-to-end benchmark: it runs one
// workload of the Needle analyzer (the needled service over a cold store,
// or a serial sweep warm-started from a disk store) for a fixed
// number of ops, checks every output, and prints the end-to-end metrics —
// or, with -trace 1, the per-layer metrics of a separate traced run. The
// last line of standard output is one JSON result object.
//
// Build and run it from the repository root with
//
//	bash needlebench/run.sh --workload sweep-warm-disk --seed 1 --seconds 40 --trace 0
//
// See README.md in this directory for workloads, metrics and design.
package main

import (
	"context"
	"embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"needle/internal/core"
	"needle/internal/workloads"
)

// A run sets its workload up setupsBefore times before the timed phase
// (keeping the last instance for it) and setupsAfter times after it;
// setup_s is the median of all of them. Spreading the samples over the run
// keeps a burst of host noise a few seconds long from moving every one.
const setupsBefore, setupsAfter = 2, 5

//go:embed reference/*.json
var referenceFS embed.FS

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(specNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", 40, "nominal run length; fixes the op count")
		trace    = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
		dir      = flag.String("dir", ".bench_build/needlebench", "scratch directory for stores and spans")
		writeRef = flag.String("write-reference", "", "regenerate the reference summaries into this directory and exit")
	)
	flag.Parse()
	var err error
	if *workload == "all" {
		err = runAll(*seed, *seconds, *trace, *dir)
	} else {
		err = run(*workload, *seed, *seconds, *trace, *dir, *writeRef)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "needlebench:", err)
		os.Exit(1)
	}
}

// runAll runs every workload in turn, each in its own process so that one
// workload's peak RSS and heap never count against the next.
func runAll(seed int64, seconds, trace int, dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, sp := range specs {
		cmd := exec.Command(self, "-workload", sp.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-dir", dir)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", sp.name, err)
		}
	}
	return nil
}

func specNames() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

func run(workload string, seed int64, seconds, trace int, dir, writeRef string) error {
	if writeRef != "" {
		return writeReferences(writeRef)
	}
	sp := specByName(workload)
	if sp == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(specNames(), ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	env := &runEnv{seed: seed, dir: dir, refs: refs, cfg: core.DefaultConfig()}
	var res *result
	if trace == 1 {
		res, err = runLayers(sp, env, sp.opCount(seconds))
	} else {
		res, err = runEndToEnd(sp, env, sp.opCount(seconds))
	}
	if err != nil {
		return err
	}
	return res.print(os.Stdout)
}

// loadReferences reads the embedded reference summaries, keyed by workload.
func loadReferences() (map[string][]byte, error) {
	refs := make(map[string][]byte)
	err := fs.WalkDir(referenceFS, "reference", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := referenceFS.ReadFile(p)
		refs[strings.TrimSuffix(path.Base(p), ".json")] = raw
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(refs) != len(workloads.All()) {
		return nil, fmt.Errorf("have %d reference summaries for %d workloads", len(refs), len(workloads.All()))
	}
	return refs, nil
}

// writeReferences analyzes every workload at its default size and writes
// one reference summary file per workload.
func writeReferences(dir string) error {
	progs, err := materialize()
	if err != nil {
		return err
	}
	for _, p := range progs {
		a, err := core.New().Run(context.Background(), p, core.DefaultConfig())
		if err != nil {
			return err
		}
		body, err := summaryBytes(a)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, p.Name+".json"), body, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// measurement is what one timed phase observed.
type measurement struct {
	lat    []float64 // per-op latency, ms, indexed by op
	failed []bool
	wall   time.Duration
	cpu    time.Duration
	rt     runtimeSample // runtime counter deltas
	ticks  cpuTicks      // machine tick deltas
	errors int
	// retained is the live-heap growth over the timed rounds, in bytes,
	// each round measured between two runtime.GC() calls.
	retained int64
}

func (m *measurement) failures() int {
	n := 0
	for _, f := range m.failed {
		if f {
			n++
		}
	}
	return n
}

// okLatencies returns the latencies of the ops that succeeded.
func (m *measurement) okLatencies() []float64 {
	out := make([]float64, 0, len(m.lat))
	for i, l := range m.lat {
		if !m.failed[i] {
			out = append(out, l)
		}
	}
	return out
}

func (m *measurement) steal() float64 {
	return safeDiv(float64(m.ticks.steal), float64(m.ticks.busy))
}

// rounder is a workload whose timed ops run in rounds of spec.roundOps,
// each against fresh state that newRound prepares between timed rounds.
type rounder interface {
	newRound()
}

// measure runs ops timed ops on sp.clients closed-loop clients, in rounds
// when the workload has them. Only the rounds are timed, not the work
// between them.
func measure(b bench, sp *spec, ops int) *measurement {
	m := &measurement{lat: make([]float64, ops), failed: make([]bool, ops)}
	round := ops
	if sp.roundOps > 0 {
		round = sp.roundOps
	}
	for lo := 0; lo < ops; lo += round {
		if lo > 0 {
			b.(rounder).newRound()
		}
		runtime.GC()
		heap0 := sampleRuntime().heapAlloc
		m.timeOps(b, sp.clients, lo, min(lo+round, ops))
		runtime.GC()
		m.retained += int64(sampleRuntime().heapAlloc) - int64(heap0)
	}
	return m
}

// timeOps runs ops [lo, hi): each client takes the next op index as soon as
// its previous op returns.
func (m *measurement) timeOps(b bench, clients, lo, hi int) {
	var (
		next  atomic.Int64
		errMu sync.Mutex
		wg    sync.WaitGroup
	)
	next.Store(int64(lo))
	ctx := context.Background()
	ticks0 := readTicks()
	rt0 := sampleRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= hi {
					return
				}
				t := time.Now()
				err := b.op(ctx, i)
				m.lat[i] = float64(time.Since(t).Nanoseconds()) / 1e6
				if err != nil {
					m.failed[i] = true
					errMu.Lock()
					if m.errors++; m.errors <= 5 {
						fmt.Fprintf(os.Stderr, "op %d failed: %v\n", i, err)
					}
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	m.wall += time.Since(start)
	m.cpu += cpuTime() - cpu0
	m.rt = m.rt.add(sampleRuntime().sub(rt0))
	t1 := readTicks()
	m.ticks.busy += t1.busy - ticks0.busy
	m.ticks.steal += t1.steal - ticks0.steal
}

// verifyInto runs the workload's post-timed checks and marks wrong ops
// failed.
func verifyInto(b bench, m *measurement) error {
	bad, err := b.verify(context.Background())
	if err != nil {
		return err
	}
	for _, i := range bad {
		if !m.failed[i] {
			fmt.Fprintf(os.Stderr, "op %d: response differs from the in-process run\n", i)
		}
		m.failed[i] = true
	}
	return nil
}

// setUp builds and sets up a workload instance, then settles the GC.
func setUp(sp *spec, env *runEnv, ops int) (bench, time.Duration, error) {
	start := time.Now()
	b := sp.new(env)
	if err := b.setup(ops); err != nil {
		b.close()
		return nil, 0, fmt.Errorf("%s setup: %w", sp.name, err)
	}
	runtime.GC()
	return b, time.Since(start), nil
}

// runEndToEnd is the untraced run: set up, time the ops, verify, set up
// again.
func runEndToEnd(sp *spec, env *runEnv, ops int) (*result, error) {
	var (
		b      bench
		setups []float64
	)
	for k := 0; k < setupsBefore; k++ {
		if b != nil {
			b.close()
			runtime.GC()
		}
		var (
			d   time.Duration
			err error
		)
		if b, d, err = setUp(sp, env, ops); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	m := measure(b, sp, ops)
	err := verifyInto(b, m)
	peakRSS := peakRSSMiB()
	b.close()
	if err != nil {
		return nil, err
	}
	for k := 0; k < setupsAfter; k++ {
		runtime.GC()
		b, d, err := setUp(sp, env, ops)
		if err != nil {
			return nil, err
		}
		b.close()
		setups = append(setups, d.Seconds())
	}

	failed := m.failures()
	lat := m.okLatencies()
	tailName, tailQ := tailLevel(len(lat))
	n := float64(ops)
	res := newResult(sp, env.seed, ops, failed, m.steal())
	res.tail = fmt.Sprintf("%s(n=%d,beyond=%d)", tailName, len(lat), beyond(tailQ, len(lat)))
	res.add("setup_s", median(setups), len(setups))
	res.add("latency_ms_p50", median(append([]float64(nil), lat...)), len(lat))
	res.add("latency_ms_tail", quantile(lat, tailQ), len(lat))
	res.add("analyses_per_s", float64(ops-failed)/m.wall.Seconds(), ops)
	res.add("cpu_ms_per_op", float64(m.cpu.Nanoseconds())/1e6/n, ops)
	res.add("alloc_mib_per_op", float64(m.rt.totalAlloc)/(1<<20)/n, ops)
	res.add("allocs_per_op", float64(m.rt.mallocs)/n, ops)
	res.add("peak_rss_mib", peakRSS, 1)
	res.add("success_rate", float64(ops-failed)/n, ops)
	return res, nil
}

// result is one run's printed outcome.
type result struct {
	spec    *spec
	seed    int64
	ops     int
	failed  int
	steal   float64
	tail    string
	values  map[string]float64
	samples map[string]int
	notes   []string
}

func newResult(sp *spec, seed int64, ops, failed int, steal float64) *result {
	return &result{spec: sp, seed: seed, ops: ops, failed: failed, steal: steal,
		values: make(map[string]float64), samples: make(map[string]int)}
}

func (r *result) add(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// print writes the human-readable table, the run environment, and the
// final JSON line.
func (r *result) print(w io.Writer) error {
	units := make(map[string]string)
	fmt.Fprintf(w, "workload %s\n", r.spec.name)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := r.values[d.name]; ok {
			units[d.name] = d.unit
			fmt.Fprintf(w, "  %-34s %14.6g %-6s n=%d\n", d.name, v, d.unit, r.samples[d.name])
		}
	}
	for _, note := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", note)
	}
	fmt.Fprintf(w, "env seed=%d ops=%d failed=%d tail=%s host.steal_frac=%.4f GOMAXPROCS=%d nproc=%d go=%s\n",
		r.seed, r.ops, r.failed, r.tail, r.steal, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(r.values))
	for name, v := range r.values {
		metrics[name] = metricOut{Value: v, Unit: units[name]}
	}
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.ops, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}
