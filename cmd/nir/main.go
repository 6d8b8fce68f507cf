// Command nir is the IR tool: it parses, verifies, prints, profiles, and
// runs .nir files (the textual IR format of internal/ir).
//
// Usage:
//
//	nir verify file.nir
//	nir print file.nir
//	nir run file.nir [-f func] [-mem words] [args...]
//	nir paths file.nir [-f func] [-mem words] [args...]
//	nir stats file.nir [-f func]
//
// Arguments are int64 literals, or float literals prefixed with "f:"
// (e.g. f:3.5). The run exit prints the return value; paths additionally
// prints the Ball-Larus path profile of the executed function. The
// static-analysis diagnostics are `needle -vet -nir file.nir`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"needle/internal/analysis"
	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/profile"
	"needle/internal/program"
	"needle/internal/region"
)

func main() {
	if len(os.Args) < 3 {
		usage()
	}
	cmd, file := os.Args[1], os.Args[2]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	funcName := fs.String("f", "", "function to run (default: first)")
	memWords := fs.Int("mem", 4096, "memory size in words")
	if err := fs.Parse(os.Args[3:]); err != nil {
		fatal("%v", err)
	}

	// The same loader the needle CLI and the needled service use; the zero
	// Limits is unlimited (local files are trusted input).
	src, err := os.ReadFile(file)
	if err != nil {
		fatal("%v", err)
	}
	m, err := program.ParseModule(string(src), program.Limits{})
	if err != nil {
		fatal("%v", err)
	}

	switch cmd {
	case "stats":
		f := pick(m, *funcName)
		am := pm.NewManager()
		st := region.Characterize(am, f)
		dag, derr := ballarus.Build(am, f)
		fmt.Printf("%s: %d blocks, %d instructions, %d branches, %d back edges\n",
			f.Name, len(f.Blocks), f.NumInstrs(), st.Branches, st.BackwardBranches)
		fmt.Printf("predication bits for full if-conversion: %d\n", st.PredicationBits)
		fmt.Printf("avg mem ops control-dependent per branch: %.1f\n", st.AvgBranchMem)
		fmt.Printf("avg loads feeding a branch condition:     %.1f\n", st.AvgMemBranch)
		if derr != nil {
			fmt.Printf("Ball-Larus: not profilable (%v)\n", derr)
		} else {
			fmt.Printf("Ball-Larus: %d static acyclic paths\n", dag.NumPaths())
		}
		_ = memWords
	case "verify":
		for _, f := range m.Funcs {
			if err := analysis.VerifySSA(f); err != nil {
				fatal("%v", err)
			}
		}
		fmt.Printf("%s: %d function(s) OK\n", file, len(m.Funcs))
	case "print":
		fmt.Print(ir.PrintModule(m))
	case "run", "paths":
		f := pick(m, *funcName)
		args := parseArgs(fs.Args(), f)
		mem := make([]uint64, *memWords)
		if cmd == "run" {
			res, err := interp.Exec(interp.BuildPlan(f), args, mem, 0)
			if err != nil {
				fatal("%v", err)
			}
			printResult(f, res)
			return
		}
		fp, err := profile.CollectFunction(nil, f, args, mem, false, 0)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s: %d executed paths, %d dynamic instructions\n",
			f.Name, fp.NumExecutedPaths(), fp.TotalWeight)
		for i, p := range fp.TopK(10) {
			var names []string
			for _, b := range p.Blocks {
				names = append(names, b.Name)
			}
			fmt.Printf("  #%d id=%d freq=%d ops=%d cov=%.1f%%  %s\n",
				i+1, p.ID, p.Freq, p.Ops, p.Coverage(fp)*100, strings.Join(names, ">"))
		}
	default:
		usage()
	}
}

func pick(m *ir.Module, name string) *ir.Function {
	if name == "" {
		if len(m.Funcs) == 0 {
			fatal("module has no functions")
		}
		return m.Funcs[0]
	}
	f := m.Func(name)
	if f == nil {
		fatal("no function %q", name)
	}
	return f
}

func parseArgs(raw []string, f *ir.Function) []uint64 {
	// The interactive tool keeps its historical strictness: every parameter
	// must be supplied (program.ArgValues zero-fills missing ones).
	if len(raw) != f.NumParams() {
		fatal("%s wants %d arguments, got %d", f.Name, f.NumParams(), len(raw))
	}
	out, err := program.ArgValues(f, raw)
	if err != nil {
		fatal("%v", err)
	}
	return out
}

func printResult(f *ir.Function, res interp.Result) {
	// Infer the printed form from the returning block's type where possible.
	asFloat := false
	for _, b := range f.Blocks {
		if t := b.Term(); t != nil && t.Op == ir.OpRet && len(t.Args) == 1 {
			asFloat = t.Type == ir.F64
		}
	}
	if asFloat {
		fmt.Printf("ret = %g (%d instructions)\n", interp.F(res.Ret), res.Steps)
	} else {
		fmt.Printf("ret = %d (%d instructions)\n", interp.I(res.Ret), res.Steps)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: nir {verify|print|run|paths|stats} file.nir [-f func] [-mem words] [args...]")
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nir: "+format+"\n", args...)
	os.Exit(1)
}
