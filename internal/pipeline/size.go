// Resident-size estimates: the bytes a memory-tier entry keeps alive, which
// the Cache budgets (CacheBudget). An estimate is a deterministic function
// of the artifact's table lengths — never its encoded length, which can be
// far smaller than what decoding allocates (186.crafty's profile payload is
// 154 KB; its decode builds 3.7 MB of tables).
//
// The tables whose layout this package can see (the function's
// instructions, the trace's occurrence, run and run-cycle tables, the path
// records and their block-index arena, braids, frames) are counted element
// by element.
// The analyses whose layout lives in other packages (the execution plan,
// dominator and post-dominator trees, control dependence, liveness and the
// Ball–Larus DAG) are charged per block and per instruction, at costs
// measured on internal/corpus; TestResidentBytesTrackHeap holds every
// stage's estimate within 2× of the heap it retains.
package pipeline

import (
	"unsafe"

	"needle/internal/frame"
	"needle/internal/ir"
	"needle/internal/profile"
	"needle/internal/region"
	"needle/internal/sim"
)

const (
	// entryBytes is an entry's own cost: the cacheEntry, its map slot and
	// its artifact struct. The key's bytes are added separately.
	entryBytes = 256
	// mapEntryBytes is one entry of a map with word-sized keys and values,
	// with its share of the table's slack.
	mapEntryBytes = 48
	// rankHistBytes is one path's entry in a trace's history table, which
	// sim keeps unexported: the path's inner branch outcomes, their count,
	// its first block and back edge, and the history a long run of it ends
	// on.
	rankHistBytes = 32
)

// residentBytes estimates what a completed entry keeps alive: its key, and
// its artifact or memoized error.
func residentBytes(key string, val any, err error) int64 {
	n := int64(entryBytes + len(key))
	if err != nil {
		return n + int64(len(err.Error()))
	}
	switch v := val.(type) {
	case *InlineArtifact:
		n += funcBytes(v.F) + 8*int64(len(v.Args)+len(v.Memory))
	case *OptArtifact:
		n += funcBytes(v.F)
	case *ProfileArtifact:
		n += traceBytes(v.Trace)
	case *SelectArtifact:
		n += 8 * int64(len(v.Braids))
		for _, b := range v.Braids {
			n += braidBytes(b)
		}
	case *FrameArtifact:
		n += frameBytes(v.HotBraidFrame)
		if v.FrameErr != nil {
			n += int64(len(v.FrameErr.Error()))
		}
	}
	return n
}

// funcBytes estimates a function: its blocks with their instruction and
// predecessor lists, each instruction with its operands, the register
// types and the by-name block index.
func funcBytes(f *ir.Function) int64 {
	n := int64(unsafe.Sizeof(*f)) + int64(len(f.Name)+len(f.RegType)+len(f.Params))
	for _, b := range f.Blocks {
		n += int64(unsafe.Sizeof(*b)) + int64(len(b.Name)) + mapEntryBytes + 8*int64(cap(b.Instrs)+cap(b.Preds)+1)
		for _, in := range b.Instrs {
			n += int64(unsafe.Sizeof(*in)) + 4*int64(cap(in.Args)) + 8*int64(cap(in.Blocks))
		}
	}
	return n
}

// Measured per-block and per-instruction costs of the analyses a pipeline
// run computes over its hot function.
const (
	planInstrBytes    = 60  // execution plan, per instruction
	planBlockBytes    = 300 // execution plan, per block (packets, phi moves, edges)
	treeBlockBytes    = 92  // dominator and post-dominator trees, per block
	ctrlDepBlockBytes = 12  // control dependence, per block
	dagBlockBytes     = 96  // Ball–Larus DAG, per block
	liveBlockBytes    = 50  // liveness, per block, beyond its register sets
	liveWordBytes     = 40  // liveness, per block and 64-register word of its sets
	analysesBytes     = 1024
)

// analysisBytes estimates the analysis-manager tables a pipeline run builds
// for f: the plan and dominators capture needs, the post-dominators and
// control dependence Characterize reads, and the liveness framing reads.
func analysisBytes(f *ir.Function) int64 {
	blocks, words := int64(len(f.Blocks)), int64(len(f.RegType)+63)/64
	return analysesBytes + planInstrBytes*int64(f.NumInstrs()) +
		blocks*(planBlockBytes+treeBlockBytes+ctrlDepBlockBytes+liveBlockBytes+liveWordBytes*words)
}

// traceBytes estimates a captured trace: the occurrence table (each
// occurrence's host cycles), the run table and its host-cycle sums, the
// ranked path records with their 4-byte block indices and history table
// entries, the edge index, block counts and DAG. The trace holds its
// function's analysis manager, so it is charged for the analyses the run
// builds there too.
func traceBytes(tr *sim.Trace) int64 {
	fp := tr.Profile
	f := fp.F
	n := int64(unsafe.Sizeof(*tr)+unsafe.Sizeof(*fp)) +
		int64(unsafe.Sizeof(sim.Occurrence{}))*int64(cap(tr.Occ)) +
		int64(unsafe.Sizeof(profile.Run{}))*int64(cap(fp.Runs)) + 8*int64(cap(tr.RunCycles)) +
		(int64(unsafe.Sizeof(profile.Path{}))+8+rankHistBytes)*int64(len(fp.Paths)) +
		mapEntryBytes*int64(len(fp.EdgeCounts)) + 8*int64(cap(fp.BlockCounts)) +
		dagBlockBytes*int64(len(f.Blocks))
	for _, p := range fp.Paths {
		n += 4 * int64(len(p.Blocks))
	}
	return n + analysisBytes(f)
}

// braidBytes estimates one braid: its region's block and path lists and
// membership table.
func braidBytes(b *region.Braid) int64 {
	return int64(unsafe.Sizeof(*b)) + 8*int64(cap(b.Blocks)+cap(b.Paths)) + int64(len(b.F.Blocks))
}

// frameBytes estimates a frame: its ops with their dependence lists, the
// live-in, live-out and loop-carried tables. Its region is the braid's,
// which the select entry counts. A nil frame costs nothing.
func frameBytes(fr *frame.Frame) int64 {
	if fr == nil {
		return 0
	}
	n := int64(unsafe.Sizeof(*fr)) + int64(unsafe.Sizeof(frame.Op{}))*int64(cap(fr.Ops)) +
		4*int64(cap(fr.LiveIn)+cap(fr.LiveOut)) + int64(unsafe.Sizeof(frame.CarriedPair{}))*int64(cap(fr.Carried))
	for i := range fr.Ops {
		n += 8 * int64(len(fr.Ops[i].Deps))
	}
	return n
}
