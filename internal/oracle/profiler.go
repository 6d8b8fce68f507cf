package oracle

import (
	"needle/internal/ballarus"
	"needle/internal/interp"
	"needle/internal/ir"
)

// Profiler accumulates a Ball-Larus path profile while a function executes
// on the tree-walking Run. Attach it via Hooks. A single Profiler may observe
// many invocations of the same function. Production profiling runs the
// compiled plan (profile.Collector); Profiler is the reference the plan's
// path counts are tested against. It reads the edge values from the
// interp.BLPlan the DAG compiles, whose every slot ballarus's tests pin
// against the reference DAG.
type Profiler struct {
	dag *ballarus.DAG
	bl  *interp.BLPlan

	// Counts maps path ID to execution frequency.
	Counts map[int64]int64
	// Trace, when RecordTrace is set, is the sequence of completed path IDs
	// in execution order (the "path trace" of Section IV-A).
	Trace       []int64
	RecordTrace bool
	// OnPath, when non-nil, fires at every path completion with the path ID,
	// letting the system simulator attribute costs to path occurrences.
	OnPath func(id int64)

	cur    int64
	inside bool
	// member is dense by Block.Index with an identity check: callee blocks
	// carry their own (overlapping) index ranges, so the index alone is not
	// enough, but the compare replaces a map lookup per event.
	member []*ir.Block
}

// NewProfiler creates a profiler for the function described by dag.
func NewProfiler(dag *ballarus.DAG) *Profiler {
	member := make([]*ir.Block, len(dag.F.Blocks))
	for _, b := range dag.F.Blocks {
		member[b.Index] = b
	}
	return &Profiler{
		dag:    dag,
		bl:     dag.CompilePlan(interp.BuildPlan(dag.F)),
		Counts: make(map[int64]int64),
		member: member,
	}
}

// isMember reports whether b belongs to the profiled function.
func (p *Profiler) isMember(b *ir.Block) bool {
	return b.Index < len(p.member) && p.member[b.Index] == b
}

// DAG returns the underlying path numbering.
func (p *Profiler) DAG() *ballarus.DAG { return p.dag }

// edge returns the annotation of the edge from a member block to to, or
// nil when from has no successor slot leading there.
func (p *Profiler) edge(from, to *ir.Block) *interp.BLEdge {
	for k, s := range from.Succs() {
		if s.Index == to.Index {
			return &p.bl.Succs[from.Index][k]
		}
	}
	return nil
}

func (p *Profiler) record(id int64) {
	p.Counts[id]++
	if p.RecordTrace {
		p.Trace = append(p.Trace, id)
	}
	if p.OnPath != nil {
		p.OnPath(id)
	}
}

// Hooks returns interpreter hooks that drive this profiler. The hooks only
// react to blocks of the profiled function (membership-checked), so they are
// safe to use even when other functions — callees included — run on the same
// interpreter. Recursive invocations of the profiled function itself are not
// supported; the pipeline inlines calls before profiling.
func (p *Profiler) Hooks() *Hooks {
	f := p.dag.F
	return &Hooks{
		Block: func(b *ir.Block) {
			if !p.inside && b == f.Entry() {
				p.inside = true
				p.cur = p.bl.EntryVal
			}
		},
		Edge: func(from, to *ir.Block) {
			if !p.inside || !p.isMember(from) {
				return
			}
			e := p.edge(from, to)
			switch {
			case e == nil:
			case e.Flush:
				p.record(p.cur + e.Inc)
				p.cur = e.Reset
			default:
				p.cur += e.Inc
			}
		},
		Exit: func(from *ir.Block) {
			if !p.inside || !p.isMember(from) {
				return
			}
			if t := from.Term(); t != nil && t.Op == ir.OpRet {
				p.record(p.cur + p.bl.RetVal[from.Index])
			}
			p.inside = false
		},
	}
}

// TotalOccurrences returns the total number of recorded path executions.
func (p *Profiler) TotalOccurrences() int64 {
	var n int64
	for _, c := range p.Counts {
		n += c
	}
	return n
}
