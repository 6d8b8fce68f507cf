package irgen

import (
	"testing"

	"needle/internal/analysis"
	"needle/internal/ballarus"
	"needle/internal/cgra"
	"needle/internal/frame"
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/oracle"
	"needle/internal/passes"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/spec"
)

const seeds = 150

// TestGeneratedProgramsAreWellFormed: every generated program passes the
// verifier and the SSA dominance check, parses back from its printed form,
// and runs to completion deterministically.
func TestGeneratedProgramsAreWellFormed(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		p := Generate(seed, Config{})
		if err := analysis.VerifySSA(p.F); err != nil {
			t.Fatalf("seed %d: SSA: %v", seed, err)
		}
		text := ir.Print(p.F)
		if _, err := ir.ParseFunction(text); err != nil {
			t.Fatalf("seed %d: reparse: %v\n%s", seed, err, text)
		}
		r1, err := oracle.Run(p.F, []uint64{interp.IBits(seed)}, p.NewMem(), nil, 1<<22)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		r2, err := oracle.Run(p.F, []uint64{interp.IBits(seed)}, p.NewMem(), nil, 1<<22)
		if err != nil || r1.Ret != r2.Ret || r1.Steps != r2.Steps {
			t.Fatalf("seed %d: nondeterministic", seed)
		}
	}
}

// TestBallLarusPartitionInvariant: on random programs, path-attributed ops
// must equal the interpreter's step count exactly, every executed path must
// decode, and encode(decode(id)) must round-trip.
func TestBallLarusPartitionInvariant(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		p := Generate(seed, Config{})
		dag, err := ballarus.Build(nil, p.F)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		prof := oracle.NewProfiler(dag)
		res, err := oracle.Run(p.F, []uint64{interp.IBits(seed * 7)}, p.NewMem(), prof.Hooks(), 1<<22)
		if err != nil {
			t.Fatalf("seed %d: run: %v", seed, err)
		}
		var ops int64
		for id, c := range prof.Counts {
			blocks, err := dag.DecodeAppend(nil, id)
			if err != nil {
				t.Fatalf("seed %d: decode %d: %v", seed, id, err)
			}
			back, err := dag.Encode(blocks)
			if err != nil || back != id {
				t.Fatalf("seed %d: encode(decode(%d)) = %d, %v", seed, id, back, err)
			}
			ops += c * ballarus.PathOps(p.F, blocks)
		}
		if ops != res.Steps {
			t.Fatalf("seed %d: attributed %d ops, interpreter ran %d", seed, ops, res.Steps)
		}
	}
}

// TestOptimizePreservesSemanticsOnRandomPrograms: the cleanup pipeline must
// not change results or memory effects.
func TestOptimizePreservesSemanticsOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < seeds; seed++ {
		p := Generate(seed, Config{})
		mem1 := p.NewMem()
		r1, err := oracle.Run(p.F, []uint64{interp.IBits(11)}, mem1, nil, 1<<22)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		clone := ir.CloneFunction(p.F)
		passes.Optimize(clone)
		if err := analysis.VerifySSA(clone); err != nil {
			t.Fatalf("seed %d: optimized SSA: %v", seed, err)
		}
		mem2 := p.NewMem()
		r2, err := oracle.Run(clone, []uint64{interp.IBits(11)}, mem2, nil, 1<<22)
		if err != nil {
			t.Fatalf("seed %d: optimized run: %v", seed, err)
		}
		if r1.Ret != r2.Ret {
			t.Fatalf("seed %d: Optimize changed result %d -> %d", seed, interp.I(r1.Ret), interp.I(r2.Ret))
		}
		for i := range mem1 {
			if mem1[i] != mem2[i] {
				t.Fatalf("seed %d: Optimize changed memory at %d", seed, i)
			}
		}
		if r2.Steps > r1.Steps {
			t.Fatalf("seed %d: Optimize made execution longer (%d -> %d)", seed, r1.Steps, r2.Steps)
		}
	}
}

// TestProfilePipelineOnRandomPrograms: profiles collect, rank, and the
// coverage identities hold.
func TestProfilePipelineOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < seeds; seed += 3 {
		p := Generate(seed, Config{})
		fp, err := profile.CollectFunction(nil, p.F, []uint64{interp.IBits(5)}, p.NewMem(), true, 1<<22)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fp.NumExecutedPaths() == 0 {
			t.Fatalf("seed %d: no paths", seed)
		}
		full := fp.CoverageTopK(fp.NumExecutedPaths())
		if full < 0.999 || full > 1.001 {
			t.Fatalf("seed %d: full coverage = %v", seed, full)
		}
		// Ranking is by weight, descending.
		for i := 0; i+1 < len(fp.Paths); i++ {
			if fp.Paths[i].Weight < fp.Paths[i+1].Weight {
				t.Fatalf("seed %d: ranking violated at %d", seed, i)
			}
		}
	}
}

// TestRegionAndFramePipelineOnRandomPrograms: braids group paths by
// entry/exit with coverage equal to the sum of their constituents, and every
// path/braid region frames with topologically ordered dependences and a
// finite CGRA schedule.
func TestRegionAndFramePipelineOnRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < seeds; seed += 5 {
		p := Generate(seed, Config{})
		fp, err := profile.CollectFunction(nil, p.F, []uint64{interp.IBits(9)}, p.NewMem(), true, 1<<22)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		braids := region.BuildBraids(fp, 0)
		var braidCov float64
		for _, br := range braids {
			braidCov += br.Coverage(fp)
			for _, pp := range br.Paths {
				if int(pp.Blocks[0]) != br.Entry.Index || int(pp.Blocks[len(pp.Blocks)-1]) != br.Exit.Index {
					t.Fatalf("seed %d: braid grouping violated", seed)
				}
			}
		}
		// Braids partition all executed paths, so their coverage sums to 1.
		if braidCov < 0.999 || braidCov > 1.001 {
			t.Fatalf("seed %d: braid coverage sums to %v", seed, braidCov)
		}

		// Frame every braid and the top paths.
		var frames []*frame.Frame
		for _, br := range braids {
			fr, err := frame.Build(nil, &br.Region, frame.Options{})
			if err != nil {
				t.Fatalf("seed %d: braid frame: %v", seed, err)
			}
			frames = append(frames, fr)
		}
		for _, pp := range fp.TopK(3) {
			fr, err := frame.Build(nil, region.FromPath(p.F, pp), frame.Options{})
			if err != nil {
				t.Fatalf("seed %d: path frame: %v", seed, err)
			}
			frames = append(frames, fr)
		}
		for _, fr := range frames {
			for i, op := range fr.Ops {
				for _, d := range op.Deps {
					if d >= i {
						t.Fatalf("seed %d: non-topological dep", seed)
					}
				}
			}
			s := cgra.Schedule(fr, cgra.DefaultConfig())
			if len(fr.Ops) > 0 && s.DataflowCycles <= 0 {
				t.Fatalf("seed %d: empty schedule for %d ops", seed, len(fr.Ops))
			}
			if s.II < 1 {
				t.Fatalf("seed %d: II = %d", seed, s.II)
			}
		}
	}
}

// TestSpecRollbackOnRandomPrograms: running the hottest path's frame
// speculatively from the function entry either succeeds or leaves memory
// bit-identical to the pre-invocation state.
func TestSpecRollbackOnRandomPrograms(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < seeds; seed++ {
		p := Generate(seed, Config{})
		fp, err := profile.CollectFunction(nil, p.F, []uint64{interp.IBits(3)}, p.NewMem(), false, 1<<22)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hot := fp.HottestPath()
		// Only frames whose region starts at the entry block can be seeded
		// with just the parameter (no preceding state).
		if entry := p.F.Blocks[hot.Blocks[0]]; entry != p.F.Entry() || len(entry.Phis()) > 0 {
			continue
		}
		fr, err := frame.Build(nil, region.FromPath(p.F, hot), frame.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mem := p.NewMem()
		snapshot := append([]uint64(nil), mem...)
		regs := make([]uint64, len(p.F.RegType))
		regs[1] = interp.IBits(99) // a different argument than profiling used
		out, err := spec.ExecuteFrame(fr, regs, mem, nil)
		if err != nil {
			t.Fatalf("seed %d: ExecuteFrame: %v", seed, err)
		}
		checked++
		if !out.Success {
			for i := range mem {
				if mem[i] != snapshot[i] {
					t.Fatalf("seed %d: rollback left memory dirty at %d", seed, i)
				}
			}
		}
	}
	if checked < 10 {
		t.Fatalf("only %d seeds produced checkable frames", checked)
	}
}
