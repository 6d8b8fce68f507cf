package ballarus

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/irgen"
	"needle/internal/passes"
	"needle/internal/workloads"
)

// TestBuildMatchesReference checks Build against referenceBuild on every
// checked-in .nir program, every workload's hot function and 240 irgen
// programs in two shapes, each inlined: the path count, every DAG node's ordered out-edges with their
// values, the back-edge set and return values, and the compiled plan
// overlay must be identical, and every sampled path ID must survive a
// decode/encode round trip.
func TestBuildMatchesReference(t *testing.T) {
	fs := nirCorpus(t)
	for _, w := range workloads.All() {
		fs = append(fs, w.Function())
	}
	pool := irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}
	for seed := int64(1); seed <= 120; seed++ {
		fs = append(fs, irgen.Generate(seed, irgen.DefaultConfig()).F, irgen.Generate(seed, pool).F)
	}
	for _, f := range fs {
		f, err := passes.InlineAll(f)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Build(nil, f)
		rd, rerr := referenceBuild(nil, f)
		if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
			t.Fatalf("%s: error %v, want %v", f.Name, err, rerr)
		}
		if err != nil {
			continue
		}
		if d.NumPaths() != rd.numPaths || d.EntryVal() != rd.entryVal {
			t.Fatalf("%s: %d paths from %d, want %d from %d", f.Name, d.NumPaths(), d.EntryVal(), rd.numPaths, rd.entryVal)
		}
		for n := range rd.out {
			got := d.out[d.outOff[n]:d.outOff[n+1]]
			if len(got) != len(rd.out[n]) {
				t.Fatalf("%s: node %d has %d out-edges, want %d", f.Name, n, len(got), len(rd.out[n]))
			}
			for j, e := range rd.out[n] {
				if int(got[j].to) != e.to || got[j].val != e.val {
					t.Fatalf("%s: node %d edge %d = (%d, %d), want (%d, %d)", f.Name, n, j, got[j].to, got[j].val, e.to, e.val)
				}
			}
		}
		for _, b := range f.Blocks {
			_, isRet := rd.retVal[b.Index]
			if d.vals[b.Index].isRet != isRet {
				t.Fatalf("%s.%s: returning %v, want %v", f.Name, b.Name, !isRet, isRet)
			}
			for _, s := range b.Succs() {
				_, back := rd.backVal[referenceEdgeKey{b.Index, s.Index}]
				if d.IsBackEdge(b, s) != back {
					t.Fatalf("%s: %s->%s back edge %v, want %v", f.Name, b.Name, s.Name, !back, back)
				}
			}
		}
		p := interp.BuildPlan(f)
		if got, want := d.CompilePlan(p), rd.CompilePlan(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: compiled plan overlay differs:\n%+v\nwant\n%+v", f.Name, got, want)
		}
		step := d.NumPaths()/64 + 1
		for id := int64(0); id < d.NumPaths(); id += step {
			blocks, err := d.DecodeAppend(nil, id)
			if err != nil {
				t.Fatalf("%s: decode %d: %v", f.Name, id, err)
			}
			if back, err := d.Encode(blocks); err != nil || back != id {
				t.Fatalf("%s: path %d encodes to %d (%v)", f.Name, id, back, err)
			}
		}
	}
}

// TestCompilePlanMatchesReferenceSlots pins CompilePlan's overlay slot by
// slot against the verbatim reference DAG's edge maps, on every workload's
// function (raw, calls and all, and inlined) and 240 irgen programs: the
// entry value and path count, every block's return value, and every
// successor slot's increment, reset and flush. The hook profiler in package
// oracle reads its edge values from this overlay, so this is what keeps
// that oracle independent of the code it checks.
func TestCompilePlanMatchesReferenceSlots(t *testing.T) {
	var fs []*ir.Function
	for _, w := range workloads.All() {
		f := w.Function()
		inl, err := passes.InlineAll(f)
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f, inl)
	}
	pool := irgen.Config{MaxDepth: 3, MaxStmts: 8, MaxLoopTrip: 24, MemWords: 1024}
	for seed := int64(1); seed <= 120; seed++ {
		fs = append(fs, irgen.Generate(seed, irgen.DefaultConfig()).F, irgen.Generate(seed, pool).F)
	}
	slots := 0
	for _, f := range fs {
		d, err := Build(nil, f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		rd, err := referenceBuild(nil, f)
		if err != nil {
			t.Fatalf("%s: reference: %v", f.Name, err)
		}
		p := interp.BuildPlan(f)
		bl := d.CompilePlan(p)
		if bl.EntryVal != rd.entryVal || bl.NumPaths != rd.numPaths {
			t.Fatalf("%s: entry value %d, %d paths; want %d, %d", f.Name, bl.EntryVal, bl.NumPaths, rd.entryVal, rd.numPaths)
		}
		if len(bl.Succs) != len(f.Blocks) || len(bl.RetVal) != len(f.Blocks) {
			t.Fatalf("%s: %d slot pairs and %d return values for %d blocks", f.Name, len(bl.Succs), len(bl.RetVal), len(f.Blocks))
		}
		for i, b := range f.Blocks {
			if got, want := bl.RetVal[i], rd.retVal[i]; got != want {
				t.Fatalf("%s.%s: return value %d, want %d", f.Name, b.Name, got, want)
			}
			for k := range bl.Succs[i] {
				var want interp.BLEdge
				if k < p.NumSuccs(i) {
					key := referenceEdgeKey{i, p.Succ(i, k)}
					if bi, ok := rd.backVal[key]; ok {
						want = interp.BLEdge{Inc: bi.exitVal, Reset: bi.resetVal, Flush: true}
					} else {
						want = interp.BLEdge{Inc: rd.normVal[key]}
					}
					slots++
				}
				if got := bl.Succs[i][k]; got != want {
					t.Fatalf("%s.%s slot %d: %+v, want %+v", f.Name, b.Name, k, got, want)
				}
			}
		}
	}
	if slots == 0 {
		t.Fatal("no successor slot checked")
	}
}

// nirCorpus returns the functions of every checked-in .nir program: the ir
// testdata, whose shapes.nir holds CFG shapes the generated programs lack,
// and the examples.
func nirCorpus(t *testing.T) []*ir.Function {
	t.Helper()
	var fs []*ir.Function
	for _, pattern := range []string{"../ir/testdata/*.nir", "../../examples/nir/*.nir"} {
		paths, err := filepath.Glob(pattern)
		if err != nil || len(paths) == 0 {
			t.Fatalf("no .nir programs at %s: %v", pattern, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ir.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			fs = append(fs, m.Funcs...)
		}
	}
	return fs
}
