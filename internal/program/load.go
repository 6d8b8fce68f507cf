// The shared .nir loader: one path from untrusted program text to a
// verified, bounded Program, used by `needle -nir`, the nir tool, and the
// needled service's inline-source endpoint. Loading enforces the caller's
// Limits so a hostile input cannot force an unbounded parse, memory image,
// or register file; violations and malformed source come back as typed
// errors (ErrTooLarge, ErrInvalid) the serve layer maps to 413/422.
package program

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"needle/internal/ir"
)

var (
	// ErrInvalid wraps every "the source is malformed" failure: parse
	// errors, verifier rejections, unknown entry functions, bad argument
	// literals, argument-count mismatches. HTTP ingestion maps it to 422.
	ErrInvalid = errors.New("invalid program")
	// ErrTooLarge wraps every limit violation: source bytes, instruction
	// count, or memory-image size over the configured cap.
	ErrTooLarge = errors.New("program exceeds limits")
)

// DefaultMemWords is the memory image size a load falls back to when the
// caller does not specify one (matching the nir tool's historical default).
const DefaultMemWords = 4096

// Limits bounds what a loaded program may cost. Zero-valued fields are
// unlimited, so the trusted CLI path can pass the zero Limits while the
// service configures every cap.
type Limits struct {
	// MaxSourceBytes caps the .nir source text length.
	MaxSourceBytes int
	// MaxInstrs caps the static instruction count across the module.
	MaxInstrs int
	// MaxMemWords caps the requested memory image size.
	MaxMemWords int
	// MaxSteps and MaxOccurrences cap the interpreter step bound and the
	// traced path-occurrence bound an untrusted request may run with. Load
	// never executes anything, so it enforces neither: the serve layer
	// applies them to the analysis config.
	MaxSteps       int64
	MaxOccurrences int64
}

// DefaultLimits is the bound needled applies to untrusted requests when it
// is given none, and whose run bounds `needle -nir` applies: generous
// enough for any of the built-in kernels (the largest traces 36k path
// occurrences) and their printed forms, small enough that a hostile request
// cannot exhaust the process.
func DefaultLimits() Limits {
	return Limits{
		MaxSourceBytes: 512 << 10,   // 512 KiB of .nir text
		MaxInstrs:      1 << 16,     // 65536 static instructions
		MaxMemWords:    1 << 22,     // 4M words (32 MiB image)
		MaxSteps:       100_000_000, // interpreter step bound
		MaxOccurrences: 1 << 20,     // traced path occurrences
	}
}

// LoadOptions selects the entry point and initial state of a loaded
// program.
type LoadOptions struct {
	// Entry names the entry function; empty selects the module's first.
	Entry string
	// MemWords is the memory image size in words; <= 0 selects
	// DefaultMemWords.
	MemWords int
	// Args are the entry function's arguments as text: int64 literals, or
	// float literals prefixed with "f:" (e.g. "f:3.5"). Missing arguments
	// default to zero values of the parameter types.
	Args []string
	// Limits bounds the load; the zero value is unlimited.
	Limits Limits
}

// ParseModule parses .nir source under the given limits. It is the one
// module-parsing entry point the commands and the service share; ir.Parse
// verifies every function, and this wrapper adds the size gates and typed
// errors.
func ParseModule(src string, lim Limits) (*ir.Module, error) {
	if lim.MaxSourceBytes > 0 && len(src) > lim.MaxSourceBytes {
		return nil, fmt.Errorf("%w: source is %d bytes, cap is %d", ErrTooLarge, len(src), lim.MaxSourceBytes)
	}
	m, err := ir.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalid, err)
	}
	if lim.MaxInstrs > 0 {
		total := 0
		for _, f := range m.Funcs {
			total += f.NumInstrs()
		}
		if total > lim.MaxInstrs {
			return nil, fmt.Errorf("%w: module has %d instructions, cap is %d", ErrTooLarge, total, lim.MaxInstrs)
		}
	}
	return m, nil
}

// Load parses .nir source and materializes the selected entry function as
// a Program named after it, in SuiteUser.
func Load(src string, opts LoadOptions) (*Program, error) {
	m, err := ParseModule(src, opts.Limits)
	if err != nil {
		return nil, err
	}
	return FromModule(m, opts)
}

// LoadFile is Load over a file's contents.
func LoadFile(path string, opts LoadOptions) (*Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("program: %w", err)
	}
	return Load(string(src), opts)
}

// FromModule materializes a parsed module's entry function as a Program.
// The module must come from ParseModule (or otherwise verify): FromModule
// does not verify it again.
func FromModule(m *ir.Module, opts LoadOptions) (*Program, error) {
	if len(m.Funcs) == 0 {
		return nil, fmt.Errorf("%w: module has no functions", ErrInvalid)
	}
	f := m.Funcs[0]
	if opts.Entry != "" {
		if f = m.Func(opts.Entry); f == nil {
			return nil, fmt.Errorf("%w: no function @%s in module", ErrInvalid, opts.Entry)
		}
	}
	memWords := opts.MemWords
	if memWords <= 0 {
		memWords = DefaultMemWords
	}
	if opts.Limits.MaxMemWords > 0 && memWords > opts.Limits.MaxMemWords {
		return nil, fmt.Errorf("%w: memory image of %d words, cap is %d", ErrTooLarge, memWords, opts.Limits.MaxMemWords)
	}
	if len(opts.Args) > f.NumParams() {
		return nil, fmt.Errorf("%w: entry @%s wants %d arguments, have %d", ErrInvalid, f.Name, f.NumParams(), len(opts.Args))
	}
	args, err := ArgValues(f, opts.Args)
	if err != nil {
		return nil, err
	}
	return assemble(f.Name, SuiteUser, f, args, make([]uint64, memWords))
}

// ArgValues parses textual argument literals into the raw register values
// the interpreter consumes, one per entry-function parameter. Integer
// parameters take int64 literals; float parameters (and any literal with
// the explicit "f:" prefix) take float literals. Parameters beyond the
// provided literals default to zero.
func ArgValues(f *ir.Function, raw []string) ([]uint64, error) {
	out := make([]uint64, f.NumParams())
	for i, s := range raw {
		if fs, ok := strings.CutPrefix(s, "f:"); ok {
			v, err := strconv.ParseFloat(fs, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad float argument %q: %v", ErrInvalid, s, err)
			}
			out[i] = math.Float64bits(v)
			continue
		}
		if f.RegType[f.Param(i)] == ir.F64 {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad float argument %q: %v", ErrInvalid, s, err)
			}
			out[i] = math.Float64bits(v)
			continue
		}
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: bad int argument %q: %v", ErrInvalid, s, err)
		}
		out[i] = uint64(v)
	}
	return out, nil
}
