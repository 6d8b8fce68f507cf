// Package vet is the typed diagnostics engine over the semantic static
// analyses (SCCP, reachability, value ranges, memory dependence): it turns
// their facts into a deterministic, machine-readable report. The same
// Check/MarshalReport pair backs `needle -vet` and the needled service's
// POST /v1/vet, so both emit byte-identical JSON for the same program.
package vet

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"needle/internal/analysis"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/program"
)

// Severity ranks a diagnostic. Errors are provable runtime faults;
// warnings are almost-certain mistakes that cannot fault by themselves;
// infos are analysis facts worth surfacing (offload candidates).
type Severity uint8

const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the lowercase severity name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = SevError
	case "warning":
		*s = SevWarning
	case "info":
		*s = SevInfo
	default:
		return fmt.Errorf("vet: unknown severity %q", name)
	}
	return nil
}

// Diagnostic codes. Stable strings: golden tests and service clients key
// on them.
const (
	CodeUnreachableBlock = "unreachable-block" // block no execution reaches
	CodeConstantBranch   = "constant-branch"   // condbr with a proven-constant condition
	CodeDeadStore        = "dead-store"        // store overwritten before any aliasing read
	CodeDeadCode         = "dead-code"         // pure def never read
	CodeOOBAccess        = "oob-access"        // address range (partly) outside memory
	CodeSelfAliasStore   = "self-alias-store"  // load-derived store address in a loop
)

// Diagnostic is one finding, anchored to a function, block, and
// instruction. Instr is the index within the block's instruction list, or
// -1 for block-level findings.
type Diagnostic struct {
	Severity Severity `json:"severity"`
	Func     string   `json:"func"`
	Block    string   `json:"block"`
	Instr    int      `json:"instr"`
	Code     string   `json:"code"`
	Msg      string   `json:"msg"`
}

func (d Diagnostic) String() string {
	at := d.Func + "/" + d.Block
	if d.Instr >= 0 {
		at = fmt.Sprintf("%s:%d", at, d.Instr)
	}
	return fmt.Sprintf("%s: %s: [%s] %s", d.Severity, at, d.Code, d.Msg)
}

// ReportSchemaVersion is bumped whenever the JSON report layout changes
// incompatibly.
const ReportSchemaVersion = 1

// Report is the full vet result for one program.
type Report struct {
	SchemaVersion int          `json:"schemaVersion"`
	Program       string       `json:"program"`
	MemWords      int          `json:"memWords"`
	Errors        int          `json:"errors"`
	Warnings      int          `json:"warnings"`
	Infos         int          `json:"infos"`
	Diagnostics   []Diagnostic `json:"diagnostics"`
}

// HasErrors reports whether any diagnostic is error-severity (the CLI's
// non-zero-exit condition).
func (r *Report) HasErrors() bool { return r.Errors > 0 }

// MarshalReport renders the report as the canonical indented JSON all
// frontends share. The result has no trailing newline; callers append one.
func MarshalReport(r *Report) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Text renders the report in human-readable form, one diagnostic per line.
func (r *Report) Text() string {
	var b strings.Builder
	for _, d := range r.Diagnostics {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%s: %d error(s), %d warning(s), %d info(s)\n",
		r.Program, r.Errors, r.Warnings, r.Infos)
	return b.String()
}

// Check runs every analysis over the program's entry function and its
// transitive callees and returns the diagnostics in deterministic order
// (module function order, then block index, instruction index, code). The
// analyses are pulled through am so repeated checks and the optimizer
// share cached fixpoints; a nil am gets a fresh manager.
func Check(am *pm.Manager, p *program.Program) *Report {
	am = pm.Ensure(am)
	memWords := len(p.Memory)
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		Program:       p.Name,
		MemWords:      memWords,
	}
	for _, f := range ir.ModuleOf(p.F).Funcs {
		rep.Diagnostics = append(rep.Diagnostics, checkFunc(am, f, memWords)...)
	}
	if rep.Diagnostics == nil {
		rep.Diagnostics = []Diagnostic{} // JSON: [] rather than null
	}
	for _, d := range rep.Diagnostics {
		switch d.Severity {
		case SevError:
			rep.Errors++
		case SevWarning:
			rep.Warnings++
		default:
			rep.Infos++
		}
	}
	return rep
}

// checkFunc produces the per-function diagnostics, sorted.
func checkFunc(am *pm.Manager, f *ir.Function, memWords int) []Diagnostic {
	sccp := am.SCCP(f)
	facts := analysis.DeriveDeadCode(f, sccp)
	rg := am.Ranges(f)
	md := am.MemDep(f)
	loops := am.NaturalLoops(f)

	inLoop := func(b *ir.Block) bool {
		for _, l := range loops {
			if l.Contains(b) {
				return true
			}
		}
		return false
	}
	instrIndex := func(b *ir.Block, in *ir.Instr) int {
		for i, x := range b.Instrs {
			if x == in {
				return i
			}
		}
		return -1
	}

	var ds []Diagnostic
	add := func(sev Severity, b *ir.Block, instr int, code, msg string) {
		ds = append(ds, Diagnostic{
			Severity: sev, Func: f.Name, Block: b.Name, Instr: instr,
			Code: code, Msg: msg,
		})
	}

	// Reachability: unreachable blocks, constant branches.
	for _, b := range facts.UnreachableBlocks {
		add(SevWarning, b, -1, CodeUnreachableBlock, "block is unreachable (no execution can enter it)")
	}
	for _, b := range f.Blocks {
		if taken, ok := sccp.ConstBranch(b); ok {
			t := b.Term()
			cond := sccp.Value(t.Args[0])
			add(SevWarning, b, instrIndex(b, t), CodeConstantBranch,
				fmt.Sprintf("branch condition is always %d; always goes to %%%s",
					int64(cond.Bits), t.Blocks[taken].Name))
		}
	}

	// Dead pure defs (SCCP-derived; executable blocks only).
	for _, in := range facts.DeadDefs {
		b := blockOf(f, in)
		add(SevInfo, b, instrIndex(b, in), CodeDeadCode,
			fmt.Sprintf("r%d is never read", in.Dst))
	}

	// Memory diagnostics: per executable block.
	for _, b := range f.Blocks {
		if !sccp.BlockExecutable(b) {
			continue
		}
		for i, in := range b.Instrs {
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				continue
			}
			kind := "load"
			if in.Op == ir.OpStore {
				kind = "store"
			}
			// Out-of-bounds: the address range vs the memory size. Errors
			// only when the access provably faults on every execution;
			// warnings only on finite bounds (a widened loop index is not
			// evidence of a bug).
			iv := rangeOfAddr(sccp, rg, in.Args[0])
			switch {
			case iv.Hi < 0 || (memWords >= 0 && iv.Lo >= int64(memWords)):
				add(SevError, b, i, CodeOOBAccess,
					fmt.Sprintf("%s of word%s is always out of bounds (mem size %d)",
						kind, fmtRange(iv), memWords))
			case (iv.Lo < 0 && iv.Lo != math.MinInt64) ||
				(iv.Hi >= int64(memWords) && iv.Hi != math.MaxInt64):
				add(SevWarning, b, i, CodeOOBAccess,
					fmt.Sprintf("%s of word%s may be out of bounds (mem size %d)",
						kind, fmtRange(iv), memWords))
			}
			if in.Op == ir.OpStore {
				// Dead store: a later store in the same block provably
				// overwrites this one before any aliasing read or call.
				if j := overwrittenBy(b, i, md); j >= 0 {
					add(SevWarning, b, i, CodeDeadStore,
						fmt.Sprintf("store is overwritten by the store at instruction %d before any read", j))
				}
				// Self-aliasing offload candidate: a store in a loop whose
				// address depends on a loaded value (data-dependent
				// addressing — the pattern the paper's braids target).
				if inLoop(b) && md.LoadDerived(in.Args[0]) {
					add(SevInfo, b, i, CodeSelfAliasStore,
						"store address is load-derived inside a loop (self-aliasing offload candidate)")
				}
			}
		}
	}

	sort.SliceStable(ds, func(i, j int) bool {
		bi, bj := blockIndexByName(f, ds[i].Block), blockIndexByName(f, ds[j].Block)
		if bi != bj {
			return bi < bj
		}
		if ds[i].Instr != ds[j].Instr {
			return ds[i].Instr < ds[j].Instr
		}
		return ds[i].Code < ds[j].Code
	})
	return ds
}

// rangeOfAddr returns the tightest interval for an address register,
// preferring an SCCP constant (exact) over the interval analysis.
func rangeOfAddr(sccp *analysis.SCCP, rg *analysis.Ranges, r ir.Reg) analysis.Interval {
	if v := sccp.Value(r); v.IsConst() {
		c := int64(v.Bits)
		return analysis.Interval{Lo: c, Hi: c}
	}
	return rg.At(r)
}

func fmtRange(iv analysis.Interval) string {
	if iv.Lo == iv.Hi {
		return fmt.Sprintf(" %d", iv.Lo)
	}
	lo, hi := "-inf", "+inf"
	if iv.Lo != math.MinInt64 {
		lo = fmt.Sprintf("%d", iv.Lo)
	}
	if iv.Hi != math.MaxInt64 {
		hi = fmt.Sprintf("%d", iv.Hi)
	}
	return fmt.Sprintf("s [%s, %s]", lo, hi)
}

// overwrittenBy returns the index of a later store in b that must-alias
// the store at index i with no possibly-aliasing load or call between
// them, or -1. Control flow cannot intervene inside a block, so the
// overwrite is unconditional.
func overwrittenBy(b *ir.Block, i int, md *analysis.MemDep) int {
	addr := b.Instrs[i].Args[0]
	for j := i + 1; j < len(b.Instrs); j++ {
		in := b.Instrs[j]
		switch in.Op {
		case ir.OpCall:
			return -1 // callee may read memory
		case ir.OpLoad:
			if md.ClassifyRegs(addr, in.Args[0]) != analysis.NoAlias {
				return -1
			}
		case ir.OpStore:
			switch md.ClassifyRegs(addr, in.Args[0]) {
			case analysis.MustAlias:
				return j
			case analysis.MayAlias:
				return -1 // partial overwrite cannot be proven dead
			}
		}
	}
	return -1
}

func blockOf(f *ir.Function, in *ir.Instr) *ir.Block {
	for _, b := range f.Blocks {
		for _, x := range b.Instrs {
			if x == in {
				return b
			}
		}
	}
	return f.Entry()
}

func blockIndexByName(f *ir.Function, name string) int {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b.Index
		}
	}
	return math.MaxInt
}
