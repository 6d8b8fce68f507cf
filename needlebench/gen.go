package main

import (
	"fmt"
	"math/rand"
	"sync"

	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/program"
	"needle/internal/workloads"
)

// Every input the benchmark sends is derived from the --seed argument here;
// the same seed yields the same request sequence and the same programs.

// nirShape is the irgen shape of serve-nir-cold's programs: deep enough that
// a cold analysis takes milliseconds (the irgen default runs in well under
// one), shallow enough that none takes seconds. Requests ask for a memory
// image of MemWords words, the size the programs' addresses are masked to.
var nirShape = irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}

// nirPoolSize is how many distinct programs serve-nir-cold's requests are
// made from.
const nirPoolSize = 1024

// nirPoolSeed generates the program pool. The pool is a constant of the
// benchmark, like the 29 built-in workloads; the run's seed picks the order
// in which requests visit it and so which (program, argument) pairs are
// sent. A pool drawn from the run's seed made a run's total work depend on
// the seed by about 6%.
const nirPoolSeed = 0x5eed

// rngFor returns the seeded stream for one named purpose, so adding a
// consumer never shifts another's sequence.
func rngFor(seed int64, purpose string) *rand.Rand {
	h := seed
	for _, c := range purpose {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(h))
}

// sweepOrder returns passes seeded permutations of the n workload indices,
// flattened: op i analyzes workload order[i].
func sweepOrder(seed int64, purpose string, passes, n int) []int {
	r := rngFor(seed, purpose)
	out := make([]int, 0, passes*n)
	for p := 0; p < passes; p++ {
		out = append(out, r.Perm(n)...)
	}
	return out
}

// materialize builds every registered workload at its default size as a
// fresh Program, the work Workload.Program does on a cold call (the registry
// caches per size, so the benchmark does not go through that cache).
func materialize() ([]*program.Program, error) {
	ws := workloads.All()
	out := make([]*program.Program, len(ws))
	for i, w := range ws {
		f, args, mem := w.Instance(0)
		p, err := program.New(w.Name, w.Suite, f, args, mem)
		if err != nil {
			return nil, err
		}
		p.Digest()
		out[i] = p
	}
	return out, nil
}

// nirProgram is one generated program of the serve-nir-cold pool, as the
// .nir text a client would send.
type nirProgram struct {
	name, src string
}

// sharedNIRPool is the pool, generated once per process on first use.
// Generating it (irgen plus printing, about 0.35 s of allocation-heavy work
// that is the benchmark making its inputs, not anything needled does) was
// the noisiest part of serve-nir-cold's set-up, so only a process's first
// set-up pays for it and setup_s, a median of several set-ups, leaves it
// out.
var sharedNIRPool = sync.OnceValue(nirPool)

// nirPool generates the pool of printed irgen programs.
func nirPool() []nirProgram {
	r := rngFor(nirPoolSeed, "nir-pool")
	out := make([]nirProgram, nirPoolSize)
	for i := range out {
		g := irgen.Generate(r.Int63(), nirShape)
		out[i] = nirProgram{name: g.F.Name, src: ir.Print(g.F)}
	}
	return out
}

// nirRequest is one serve-nir-cold op: a pool program and the argument that
// makes its content digest new.
type nirRequest struct {
	prog int
	arg  int64
}

// args renders the request's argument list as the API takes it.
func (q nirRequest) args() []string { return []string{fmt.Sprint(q.arg)} }

// nirRequests returns count requests for one phase of a run, visiting the
// pool in successive seeded permutations. Arguments never repeat within a
// run: each phase draws from its own range, and within a phase they are
// distinct, so no op can reuse another's artifacts.
func nirRequests(seed int64, phase string, base int64, count int) []nirRequest {
	order := sweepOrder(seed, "nir-requests-"+phase, (count+nirPoolSize-1)/nirPoolSize, nirPoolSize)
	out := make([]nirRequest, count)
	for i := range out {
		out[i] = nirRequest{prog: order[i], arg: base + int64(i)}
	}
	return out
}
