// Package program defines the pipeline's first-class input: an arbitrary
// NIR program plus the deterministic initial state it runs against, and a
// content digest that identifies exactly that. Every layer above the IR —
// the staged pipeline, the core Analyzer, the CLI, and the needled service
// — consumes a *Program, so "analyze this workload" and "analyze this file
// the user just POSTed" are the same operation.
//
// The digest is the load-bearing part. Stage artifacts (and their on-disk
// persisted forms) used to be keyed by workload *name*, which silently
// reused stale artifacts whenever a same-named kernel's body changed across
// binary versions. A Program is content-addressed instead: the digest is a
// SHA-256 over the positional bytes (ir.WriteFunction) of the entry
// function and everything it transitively calls, plus the entry point and
// the full initial state (arguments and memory image). Two programs share
// a digest exactly when the pipeline would produce byte-identical
// artifacts for them; two different bodies behind one name never collide.
package program

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"needle/internal/ir"
	"needle/internal/wire"
)

// Program is one analyzable unit: a verified entry function (with its
// transitive callees reachable through the IR), the pristine initial state
// a run starts from, and identity metadata. Programs are immutable after
// New; Args and Memory are the pristine images — every consumer that
// executes the program copies them first, so one Program can back any
// number of concurrent runs.
type Program struct {
	// Name labels the program in reports, spans, and summaries (a workload
	// name like "164.gzip", or the entry function's name for loaded files).
	Name string
	// Suite groups related programs ("SPEC", "PARSEC", "PERFECT" for the
	// built-in workloads; SuiteUser for programs loaded from source).
	Suite string
	// F is the entry function. It and its transitive callees have passed
	// ir.Verify.
	F *ir.Function
	// Args holds the entry function's argument values (read-only).
	Args []uint64
	// Memory is the initial memory image (read-only).
	Memory []uint64

	digestOnce sync.Once
	digest     string
}

// SuiteUser is the suite label of programs loaded from user-supplied
// source rather than the built-in workload registry.
const SuiteUser = "user"

// digestDomain separates program digests from any other SHA-256 use; bump
// the version if the digested byte layout ever changes.
const digestDomain = "needle-program-v2"

// New builds a Program after verifying the entry function and every
// function it transitively calls. The argument count must match the entry
// function's parameter count. args and memory are retained, not copied —
// the caller hands over ownership of pristine, henceforth read-only state.
func New(name, suite string, f *ir.Function, args, memory []uint64) (*Program, error) {
	if f == nil {
		return nil, fmt.Errorf("program: %s: no entry function", name)
	}
	for _, fn := range ir.ModuleOf(f).Funcs {
		if err := ir.Verify(fn); err != nil {
			return nil, fmt.Errorf("program: %s: %w", name, err)
		}
	}
	return assemble(name, suite, f, args, memory)
}

// assemble is New for a function already known to verify.
func assemble(name, suite string, f *ir.Function, args, memory []uint64) (*Program, error) {
	if len(args) != f.NumParams() {
		return nil, fmt.Errorf("program: %s: entry @%s wants %d arguments, have %d",
			name, f.Name, f.NumParams(), len(args))
	}
	return &Program{Name: name, Suite: suite, F: f, Args: args, Memory: memory}, nil
}

// digestBufBytes is the size of the one buffer Digest writes through.
const digestBufBytes = 4096

// Digest returns the program's content digest: 32 hex characters of a
// SHA-256 over, in order, the domain, the entry function's name, the
// positional bytes (ir.WriteFunction) of every function of its module in
// ir.PrintModule's order, then the argument and memory words. Every list
// is prefixed by its length, so the byte stream has one reading. It is
// deterministic across processes and binary versions — the property the
// persistent artifact store's cache keys rely on — and is computed once,
// lazily, through one fixed buffer whatever the program's size.
func (p *Program) Digest() string {
	p.digestOnce.Do(func() { p.digest = p.computeDigest() })
	return p.digest
}

func (p *Program) computeDigest() string {
	h := sha256.New()
	buf := wire.Buffer{B: make([]byte, 0, digestBufBytes), Sink: h}
	buf.String(digestDomain)
	buf.String(p.F.Name)
	funcs := ir.ModuleOf(p.F).Funcs
	buf.Uvarint(uint64(len(funcs)))
	for _, fn := range funcs {
		if err := ir.WriteFunction(&buf, fn); err != nil {
			// Only an unverified function fails; New verified these.
			panic("program: digest of " + p.Name + ": " + err.Error())
		}
	}
	for _, words := range [...][]uint64{p.Args, p.Memory} {
		buf.Uvarint(uint64(len(words)))
		for _, w := range words {
			buf.Uint64(w)
		}
	}
	buf.Flush()
	sum := h.Sum(buf.B[:0])
	hexed := hex.AppendEncode(sum[len(sum):], sum[:16])
	return string(hexed)
}

// Key returns the human-readable cache-key base the pipeline uses:
// "<name>@<digest>". The name keeps store entries and span labels
// debuggable; the digest is what makes the key content-addressed.
func (p *Program) Key() string { return p.Name + "@" + p.Digest() }

func (p *Program) String() string { return p.Key() }
