// Stage artifact codecs: the encode/decode pair each cacheable stage
// declares so a DiskStore can persist its artifact. The split follows the
// pure-data / rehydratable-state decomposition:
//
//   - The serializable core of each artifact lives next to its type
//     (profile.Data, sim.TraceData, region.BraidData, frame.Data) and holds
//     no pointers into IR or analysis state.
//   - Function bodies travel as .nir text; the parser preserves canonical
//     r<N> register numbering and block order, so every downstream artifact
//     references registers by number and blocks/instructions by position.
//   - Decoding rehydrates attached state against the in-context upstream
//     artifacts (a.Inline.F, a.Inline.AM, a.Profile.Trace.Profile), so an
//     artifact decoded from disk plugs into upstream artifacts of any
//     provenance — memory-cached, disk-decoded, or freshly computed — and
//     the pipeline's output is byte-identical in all combinations.
//
// codecVersion participates in every artifact's content address and header;
// bump it whenever any payload layout or any encoding-relevant IR semantics
// change, and old entries silently become misses.
package pipeline

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"needle/internal/frame"
	"needle/internal/ir"
	"needle/internal/pm"
	"needle/internal/region"
	"needle/internal/sim"
)

// codecVersion versions every on-disk artifact payload.
const codecVersion = 2

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// inlinePayload carries the Inline artifact: the inlined function as .nir
// text plus the workload's pristine initial state.
type inlinePayload struct {
	NIR    string
	Args   []uint64
	Memory []uint64
}

func inlineEncode(_ *Artifacts, out any) ([]byte, error) {
	art := out.(*InlineArtifact)
	text := ir.PrintModule(ir.ModuleOf(art.F))
	// Self-check the positional foundation: downstream artifacts reference
	// this function's registers by number and blocks by index, so refuse to
	// persist any function whose printed form does not round-trip exactly.
	m, err := ir.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("pipeline: inline artifact does not re-parse: %w", err)
	}
	if re := ir.PrintModule(m); re != text {
		return nil, errors.New("pipeline: inline artifact round-trip is not an identity")
	}
	return gobEncode(inlinePayload{NIR: text, Args: art.Args, Memory: art.Memory})
}

func inlineDecode(a *Artifacts, data []byte) (any, error) {
	var p inlinePayload
	if err := gobDecode(data, &p); err != nil {
		return nil, err
	}
	m, err := ir.Parse(p.NIR)
	if err != nil {
		return nil, err
	}
	if len(m.Funcs) == 0 {
		return nil, errors.New("pipeline: inline artifact has no functions")
	}
	// ModuleOf printed the inlined function first; Parse verified all of
	// them. Rehydrate a fresh analysis manager parented on this run's span.
	am := pm.NewManager()
	am.SetSpan(a.Span)
	return &InlineArtifact{AM: am, F: m.Funcs[0], Args: p.Args, Memory: p.Memory}, nil
}

// optPayload carries the Opt artifact: the optimized function as .nir text
// plus the removal summary.
type optPayload struct {
	NIR                       string
	InstrsBefore, InstrsAfter int
	BlocksBefore, BlocksAfter int
}

func optEncode(_ *Artifacts, out any) ([]byte, error) {
	art := out.(*OptArtifact)
	text := ir.PrintModule(ir.ModuleOf(art.F))
	// Same positional self-check as the inline artifact: downstream
	// artifacts reference the optimized function by register number and
	// block index.
	m, err := ir.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("pipeline: opt artifact does not re-parse: %w", err)
	}
	if re := ir.PrintModule(m); re != text {
		return nil, errors.New("pipeline: opt artifact round-trip is not an identity")
	}
	return gobEncode(optPayload{
		NIR:          text,
		InstrsBefore: art.InstrsBefore, InstrsAfter: art.InstrsAfter,
		BlocksBefore: art.BlocksBefore, BlocksAfter: art.BlocksAfter,
	})
}

func optDecode(a *Artifacts, data []byte) (any, error) {
	var p optPayload
	if err := gobDecode(data, &p); err != nil {
		return nil, err
	}
	m, err := ir.Parse(p.NIR)
	if err != nil {
		return nil, err
	}
	if len(m.Funcs) == 0 {
		return nil, errors.New("pipeline: opt artifact has no functions")
	}
	am := pm.NewManager()
	am.SetSpan(a.Span)
	return &OptArtifact{
		AM: am, F: m.Funcs[0],
		InstrsBefore: p.InstrsBefore, InstrsAfter: p.InstrsAfter,
		BlocksBefore: p.BlocksBefore, BlocksAfter: p.BlocksAfter,
	}, nil
}

func profileEncode(_ *Artifacts, out any) ([]byte, error) {
	return gobEncode(out.(*ProfileArtifact).Trace.Data())
}

func profileDecode(a *Artifacts, data []byte) (any, error) {
	var d sim.TraceData
	if err := gobDecode(data, &d); err != nil {
		return nil, err
	}
	// Attach to the function the profile was captured over: the optimized
	// one when the Opt stage ran (its fingerprint is in this artifact's
	// key, so the pairing can never be stale).
	am, f := a.HotFunc()
	tr, err := sim.TraceFromData(am, f, &d)
	if err != nil {
		return nil, err
	}
	return &ProfileArtifact{Trace: tr}, nil
}

// selectPayload carries the Select artifact: the characterization verbatim
// (pure data already) and each braid as its merged-path IDs, in rank order.
type selectPayload struct {
	CFStats region.ControlFlowStats
	Braids  []region.BraidData
}

func selectEncode(_ *Artifacts, out any) ([]byte, error) {
	art := out.(*SelectArtifact)
	p := selectPayload{CFStats: art.CFStats, Braids: make([]region.BraidData, len(art.Braids))}
	for i, br := range art.Braids {
		p.Braids[i] = br.Data()
	}
	return gobEncode(p)
}

func selectDecode(a *Artifacts, data []byte) (any, error) {
	var p selectPayload
	if err := gobDecode(data, &p); err != nil {
		return nil, err
	}
	art := &SelectArtifact{CFStats: p.CFStats, Braids: make([]*region.Braid, len(p.Braids))}
	// The stored order is the rank order BuildBraids produced; rebuild each
	// braid from its paths and keep that order rather than re-sorting.
	for i, bd := range p.Braids {
		br, err := region.BraidFromData(a.Profile.Trace.Profile, bd)
		if err != nil {
			return nil, err
		}
		art.Braids[i] = br
	}
	return art, nil
}

// framePayload carries the Frame artifact: the positional frame data when a
// frame was built, and the build error's message when it failed (rebuilt as
// a flat error, preserving the reported text byte for byte).
type framePayload struct {
	Frame *frame.Data
	Err   string
}

func frameEncode(_ *Artifacts, out any) ([]byte, error) {
	art := out.(*FrameArtifact)
	p := framePayload{}
	if art.HotBraidFrame != nil {
		p.Frame = art.HotBraidFrame.Data()
	}
	if art.FrameErr != nil {
		p.Err = art.FrameErr.Error()
	}
	return gobEncode(p)
}

func frameDecode(a *Artifacts, data []byte) (any, error) {
	var p framePayload
	if err := gobDecode(data, &p); err != nil {
		return nil, err
	}
	art := &FrameArtifact{}
	if p.Err != "" {
		art.FrameErr = errors.New(p.Err)
	}
	if p.Frame != nil {
		if len(a.Select.Braids) == 0 {
			return nil, errors.New("pipeline: frame artifact with no braid to attach to")
		}
		fr, err := frame.FromData(&a.Select.Braids[0].Region, p.Frame)
		if err != nil {
			return nil, err
		}
		art.HotBraidFrame = fr
	}
	return art, nil
}
