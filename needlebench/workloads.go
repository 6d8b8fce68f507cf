package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"needle/internal/core"
	"needle/internal/pipeline"
	"needle/internal/program"
	"needle/internal/serve"
	"needle/internal/vet"
)

// spec describes one benchmark workload.
type spec struct {
	name string
	why  string
	// clients is how many closed-loop clients issue ops.
	clients int
	// opsPerSecond is the nominal rate that turns --seconds into a fixed op
	// count; it is a constant of the benchmark, never measured at run time,
	// so the op count (and with it peak RSS, the alloc counts and the tail
	// percentile) does not move with the machine's throughput.
	opsPerSecond float64
	// opsPerPass rounds the op count up to whole passes over the mix.
	opsPerPass int
	// roundOps, when set, splits the timed ops into rounds of this many,
	// each against fresh state (see rounder).
	roundOps int
	new      func(env *runEnv) bench
}

// bench is one workload instance: set up, run ops, verify, tear down.
type bench interface {
	// setup does everything before the first timed op for ops timed ops,
	// including the discarded warm-up pass.
	setup(ops int) error
	// op performs timed op i; an error counts the op as failed.
	op(ctx context.Context, i int) error
	// verify runs checks that happen after the timed phase and returns the
	// indices of ops whose output was wrong.
	verify(ctx context.Context) ([]int, error)
	close()
}

// runEnv is what a workload instance gets from the driver.
type runEnv struct {
	seed int64
	dir  string       // scratch directory inside the checkout
	ts   *timingStore // non-nil in the traced run: wraps every store
	refs map[string][]byte
	cfg  core.Config
}

// wrap hands a store to the workload, behind the timing wrapper when
// tracing.
func (e *runEnv) wrap(s pipeline.Store) pipeline.Store {
	if e.ts == nil {
		return s
	}
	e.ts.setInner(s)
	return e.ts
}

// opCount is the fixed number of timed ops a run of seconds makes.
func (s *spec) opCount(seconds int) int {
	passes := int(math.Ceil(float64(seconds) * s.opsPerSecond / float64(s.opsPerPass)))
	return max(passes, 1) * s.opsPerPass
}

// specs are the benchmark's workloads. Two more were built and dropped
// because their medians moved between sets of runs of the same code by
// more than any bound allows (README.md, Noise): the paper-reproduction
// sweep (fresh store per pass) and needled over a warm in-memory store.
// Their layers stay measured: every stage's compute and the serving path on
// serve-nir-cold; target, memory hits, summaries and the capture split on
// the disk sweep and in the traced run's probes.
var specs = []*spec{
	{
		name:         "serve-nir-cold",
		why:          "needled vet+analyze of fresh inline .nir programs, 2 clients: ingest, vet and store inserts; nothing is reused",
		clients:      2,
		opsPerSecond: 240,
		opsPerPass:   1,
		roundOps:     1000,
		new:          func(e *runEnv) bench { return &serveNIR{env: e} },
	},
	{
		name:         "sweep-warm-disk",
		why:          "serial sweep through a new disk-store handle per pass over a filled directory: decode and target do the work",
		clients:      1,
		opsPerSecond: 90,
		opsPerPass:   29,
		new:          func(e *runEnv) bench { return &sweep{env: e} },
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// summaryBytes renders one analysis exactly as `needle -json` and
// /v1/analyze do.
func summaryBytes(a *core.Analysis) ([]byte, error) {
	out, err := core.MarshalSummaries([]*core.Analysis{a})
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// checkRef compares an op's output with the workload's reference summary.
func (e *runEnv) checkRef(name string, got []byte) error {
	want, ok := e.refs[name]
	if !ok {
		return fmt.Errorf("no reference summary for %s", name)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: summary differs from reference", name)
	}
	return nil
}

// sweep is sweep-warm-disk: ops run serially through core.Analyzer, each
// pass through a new DiskStore handle over a directory filled during setup.
type sweep struct {
	env   *runEnv
	progs []*program.Program
	order []int
	dir   string
	az    *core.Analyzer

	// targets accumulates, in the traced run, each op's Run time minus its
	// Store.Do time: the Target stage plus pipeline bookkeeping.
	targets []time.Duration
}

func (s *sweep) newStore() (pipeline.Store, error) {
	return pipeline.NewDiskStore(s.dir, 0)
}

func (s *sweep) setup(ops int) error {
	var err error
	if s.progs, err = materialize(); err != nil {
		return err
	}
	n := len(s.progs)
	s.order = sweepOrder(s.env.seed, "sweep", ops/n, n)
	if s.dir, err = os.MkdirTemp(s.env.dir, "store-"); err != nil {
		return err
	}
	// Fill the directory: what a first `needle -all -cache-dir` leaves.
	if err := s.pass(); err != nil {
		return err
	}
	return s.pass() // the discarded warm-up pass
}

// pass analyzes every program once, in a seeded order, through a new store.
func (s *sweep) pass() error {
	st, err := s.newStore()
	if err != nil {
		return err
	}
	az := core.New(core.WithStore(st))
	for _, i := range sweepOrder(s.env.seed, "warmup", 1, len(s.progs)) {
		a, err := az.Run(context.Background(), s.progs[i], s.env.cfg)
		if err != nil {
			return err
		}
		body, err := summaryBytes(a)
		if err != nil {
			return err
		}
		if err := s.env.checkRef(s.progs[i].Name, body); err != nil {
			return err
		}
	}
	return nil
}

func (s *sweep) op(ctx context.Context, i int) error {
	if i%len(s.progs) == 0 {
		st, err := s.newStore()
		if err != nil {
			return err
		}
		s.az = core.New(core.WithStore(s.env.wrap(st)))
	}
	p := s.progs[s.order[i]]
	var o *opState
	if s.env.ts != nil {
		o = s.env.ts.begin(p.Key(), i, "op")
	}
	start := time.Now()
	a, err := s.az.Run(ctx, p, s.env.cfg)
	if o != nil {
		run := time.Since(start)
		s.env.ts.end(p.Key(), o)
		s.targets = append(s.targets, run-o.doTime)
	}
	if err != nil {
		return err
	}
	body, err := summaryBytes(a)
	if err != nil {
		return err
	}
	return s.env.checkRef(p.Name, body)
}

func (s *sweep) verify(context.Context) ([]int, error) { return nil, nil }

func (s *sweep) close() {
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// server is an in-process needled behind a loopback HTTP server, with a
// keep-alive client pool for the benchmark's closed-loop clients.
type server struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
}

func startServer(store pipeline.Store) *server {
	srv := serve.New(serve.Config{Store: store})
	return &server{
		srv: srv,
		hs:  httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        8,
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
}

// post sends one JSON request and returns the full response body; any
// status but 200 is an error.
func (s *server) post(ctx context.Context, path string, req any) ([]byte, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.hs.URL+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *server) close() {
	s.srv.Drain()
	s.hs.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// nirWarmupOps is how many ops the discarded warm-up phase sends, one at a
// time. It is most of serve-nir-cold's set-up, and enough ops that the
// set-up's time is not at the mercy of a few of them.
const nirWarmupOps = 256

// sourceRequest is the /v1/vet and /v1/analyze payload of an inline
// program.
type sourceRequest struct {
	Source   string   `json:"source"`
	MemWords int      `json:"memWords"`
	Args     []string `json:"args"`
}

// serveNIR is serve-nir-cold: each op vets and then analyzes a pool program
// with an argument no other op used, so every stage misses.
type serveNIR struct {
	env  *runEnv
	s    *server
	pool []nirProgram
	reqs []nirRequest
	keys []string // program keys of reqs, in the traced run

	// vetOut and analyzeOut hold each op's response bodies for verify.
	vetOut, analyzeOut [][]byte
}

func (b *serveNIR) request(q nirRequest) sourceRequest {
	return sourceRequest{Source: b.pool[q.prog].src, MemWords: nirShape.MemWords, Args: q.args()}
}

// load parses a request exactly as the server does.
func (b *serveNIR) load(q nirRequest) (*program.Program, error) {
	return program.Load(b.pool[q.prog].src, program.LoadOptions{
		MemWords: nirShape.MemWords, Args: q.args(), Limits: serve.DefaultLimits(),
	})
}

// sourceConfig is the config the server resolves for a source request: the
// defaults with the step bound clamped to the server's cap.
func sourceConfig() core.Config {
	cfg := core.DefaultConfig().WithDefaults()
	if cfg.Sim.MaxSteps == 0 {
		cfg.Sim.MaxSteps = serve.DefaultLimits().MaxSteps
	}
	return cfg
}

func (b *serveNIR) setup(ops int) error {
	b.pool = sharedNIRPool()
	b.reqs = nirRequests(b.env.seed, "timed", 1<<20, ops)
	b.vetOut = make([][]byte, ops)
	b.analyzeOut = make([][]byte, ops)
	if b.env.ts != nil {
		b.keys = make([]string, ops)
		for i, q := range b.reqs {
			p, err := b.load(q)
			if err != nil {
				return err
			}
			b.keys[i] = p.Key()
		}
	}
	b.newRound()
	ctx := context.Background()
	for _, q := range nirRequests(b.env.seed, "warmup", 0, nirWarmupOps) {
		for _, path := range []string{"/v1/vet", "/v1/analyze"} {
			if _, err := b.s.post(ctx, path, b.request(q)); err != nil {
				return err
			}
		}
	}
	return nil
}

// newRound replaces the server with a fresh one over an empty store. The
// memory tier never evicts, so a server that lived for the whole run would
// hold every op's artifacts; rounds bound the resident set.
func (b *serveNIR) newRound() {
	if b.s != nil {
		b.s.close()
	}
	b.s = startServer(b.env.wrap(pipeline.NewCache()))
}

func (b *serveNIR) op(ctx context.Context, i int) error {
	req := b.request(b.reqs[i])
	var err error
	if b.vetOut[i], err = b.s.post(ctx, "/v1/vet", req); err != nil {
		return err
	}
	// In the traced run the op's span covers the analyze request, the one
	// that reaches the store.
	if b.env.ts != nil {
		o := b.env.ts.begin(b.keys[i], i, "op")
		defer b.env.ts.end(b.keys[i], o)
	}
	b.analyzeOut[i], err = b.s.post(ctx, "/v1/analyze", req)
	return err
}

// verify re-runs every answered op in process — vet.Check and a fresh
// core.Analyzer on the same source and arguments — and reports the ops
// whose responses are not byte-identical.
func (b *serveNIR) verify(ctx context.Context) ([]int, error) {
	var bad []int
	cfg := sourceConfig()
	for i, q := range b.reqs {
		if b.vetOut[i] == nil || b.analyzeOut[i] == nil {
			continue // already counted as failed
		}
		p, err := b.load(q)
		if err != nil {
			return nil, err
		}
		vb, err := vet.MarshalReport(vet.Check(nil, p))
		if err != nil {
			return nil, err
		}
		a, err := core.New().Run(ctx, p, cfg)
		if err != nil {
			bad = append(bad, i)
			continue
		}
		ab, err := summaryBytes(a)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(append(vb, '\n'), b.vetOut[i]) || !bytes.Equal(ab, b.analyzeOut[i]) {
			bad = append(bad, i)
		}
	}
	return bad, nil
}

func (b *serveNIR) close() { b.s.close() }
