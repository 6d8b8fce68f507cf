// Stage artifact codecs: the encode/decode pair a stage declares when a
// DiskStore should persist its artifact. A stage persists only when
// decoding its artifact is cheaper than recomputing it: Opt, whose payload
// is the optimized function; Profile, the instrumented run that is the
// costly step of every analysis; and Select, whose braids are rebuilt from
// their paths' ranks. Inline and Frame are cheap passes over the IR that cost less to
// rerun than to decode (docs/PIPELINE.md, "What persists"), and Target is
// never cached, so those three have no codec and live in the memory tier.
// The split follows the pure-data / rehydratable-state decomposition:
//
//   - The serializable core of each artifact lives next to its type
//     (profile.Data, sim.TraceData, region.BraidData), holds no pointers
//     into IR or analysis state, and writes and reads itself in the
//     positional binary layout of package wire (docs/PIPELINE.md,
//     "Payload layouts"). The same artifact always encodes to the same
//     bytes.
//   - The profile stores only what was measured: the path trace, as runs
//     of one path, each naming its path by rank in a table of executed
//     path IDs, and each occurrence's host cycles. Path counts, block and
//     edge counts and every branch history are derived from the trace on
//     decode, and checked against the captured values on encode. Stored
//     data names a path only by its rank: the select payload lists each
//     braid's paths by rank too, so decode keeps no map from path ID to
//     path.
//   - The optimized function travels in ir's positional layout
//     (ir.AppendFunction): register numbers, block order and instruction
//     order are stored as they are, so every downstream artifact references
//     registers by number and blocks/instructions by position. Decoding
//     builds the function straight into a few arenas and verifies it; no
//     text is printed or parsed on the way in, and the encode-time
//     self-check decodes the fresh bytes and compares the printed forms.
//   - Decoding rehydrates attached state against the in-context upstream
//     artifacts (the function a.HotFunc returns and its analysis manager,
//     a.Profile.Trace.Profile), so an artifact decoded from disk plugs into
//     upstream artifacts of any provenance — memory-cached, disk-decoded,
//     or freshly computed — and the pipeline's output is byte-identical in
//     all combinations.
//   - Every decoder reads through wire.Reader, which bounds each count
//     and length by the bytes left and rejects trailing bytes, so hostile
//     bytes decode to an error, never a panic or a huge allocation.
//
// codecVersion participates in every artifact's content address and header;
// bump it whenever any payload layout or any encoding-relevant IR semantics
// change, and old entries silently become misses. Files of stages without
// a codec (inline-*.art and frame-*.art from earlier builds) are never read
// again: NewDiskStore removes them when it opens a directory.
package pipeline

import (
	"fmt"

	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/region"
	"needle/internal/sim"
	"needle/internal/wire"
)

// codecVersion versions every on-disk artifact payload.
const codecVersion = 6

// Codec returns the named stage's persistent codec, the pair a DiskStore
// applies to its artifact: encode serializes a.<stage>-shaped output, and
// decode rehydrates it against a's upstream artifacts. ok is false for an
// unknown stage and for one without a codec (inline, frame and target).
func Codec(stage string) (encode func(a *Artifacts, out any) ([]byte, error), decode func(a *Artifacts, data []byte) (any, error), ok bool) {
	for i := range stages {
		if st := &stages[i]; st.Name == stage && st.encode != nil {
			return st.encode, st.decode, true
		}
	}
	return nil, nil, false
}

// appendFunc appends f in ir's positional layout (ir.AppendFunction). It
// refuses a function with calls, and one whose fresh bytes do not decode
// to a function that prints as f does: downstream artifacts reference its
// registers by number and its blocks and instructions by position.
func appendFunc(b []byte, f *ir.Function, what string) ([]byte, error) {
	start := len(b)
	b, err := ir.AppendFunction(b, f)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s artifact: %w", what, err)
	}
	r := wire.NewReader(b[start:])
	g, err := ir.ReadFunction(r)
	if err == nil {
		err = r.Done()
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s artifact does not decode: %w", what, err)
	}
	if ir.Print(g) != ir.Print(f) {
		return nil, fmt.Errorf("pipeline: %s artifact round-trip is not an identity", what)
	}
	return b, nil
}

// readFunc reads a function appendFunc wrote and gives it a fresh analysis
// manager.
func readFunc(r *wire.Reader) (*pm.Manager, *ir.Function, error) {
	f, err := ir.ReadFunction(r)
	if err != nil {
		return nil, nil, err
	}
	return pm.NewManager(), f, nil
}

// The opt payload is the optimized function, then the removal summary.
func optEncode(_ *Artifacts, out any) ([]byte, error) {
	art := out.(*OptArtifact)
	b, err := appendFunc(nil, art.F, "opt")
	if err != nil {
		return nil, err
	}
	for _, v := range [...]int{art.InstrsBefore, art.InstrsAfter, art.BlocksBefore, art.BlocksAfter} {
		b = wire.AppendVarint(b, int64(v))
	}
	return b, nil
}

func optDecode(a *Artifacts, data []byte) (any, error) {
	r := wire.NewReader(data)
	am, f, err := readFunc(r)
	if err != nil {
		return nil, err
	}
	art := &OptArtifact{AM: am, F: f,
		InstrsBefore: r.Int(), InstrsAfter: r.Int(), BlocksBefore: r.Int(), BlocksAfter: r.Int()}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return art, nil
}

// The profile payload is the trace's sim.TraceData.
func profileEncode(_ *Artifacts, out any) ([]byte, error) {
	d, err := out.(*ProfileArtifact).Trace.Data()
	if err != nil {
		return nil, err
	}
	return d.Append(nil), nil
}

func profileDecode(a *Artifacts, data []byte) (any, error) {
	r := wire.NewReader(data)
	d := sim.ReadTraceData(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	// Attach to the function the profile was captured over: the optimized
	// one when the Opt stage ran (its fingerprint is in this artifact's
	// key, so the pairing can never be stale).
	am, f := a.HotFunc()
	tr, err := sim.TraceFromData(am, f, d)
	if err != nil {
		return nil, err
	}
	return &ProfileArtifact{Trace: tr}, nil
}

// The select payload is the characterization, then each braid as its
// merged paths' ranks in the profile, braids in rank order.
func selectEncode(a *Artifacts, out any) ([]byte, error) {
	art := out.(*SelectArtifact)
	fp := a.Profile.Trace.Profile
	b := art.CFStats.Append(nil)
	b = wire.AppendUvarint(b, uint64(len(art.Braids)))
	for _, br := range art.Braids {
		b = br.Data(fp).Append(b)
	}
	return b, nil
}

func selectDecode(a *Artifacts, data []byte) (any, error) {
	r := wire.NewReader(data)
	stats := region.ReadControlFlowStats(r)
	stored := make([]region.BraidData, r.Count())
	for i := range stored {
		stored[i] = region.ReadBraidData(r)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	// The stored order is the rank order BuildBraids produced; rebuild each
	// braid from its paths and keep that order rather than re-sorting.
	braids, err := region.BraidsFromData(a.Profile.Trace.Profile, stored)
	if err != nil {
		return nil, err
	}
	return &SelectArtifact{CFStats: stats, Braids: braids}, nil
}
