package interp

// BuildPlan, referenceNewTimingPacket and referenceCompactPackets as they were before the
// plan's tables were built in place, kept verbatim as the oracles
// dense_test.go checks BuildPlan against. Renamed with a reference prefix;
// the one adaptation is that the per-block unique predecessor lists, which
// the plan now keeps in one arena, are a local the reference returns.

import (
	"fmt"

	"needle/internal/ir"
)

// referenceBuildPlan compiles f into a Plan. Building always succeeds; a function the
// plan cannot run records the error RunProfiled then returns.
func referenceBuildPlan(f *ir.Function) (*Plan, [][]*ir.Block) {

	p := &Plan{f: f}
	if len(f.Blocks) == 0 {
		p.err = fmt.Errorf("interp: %s has no blocks", f.Name)
		return p, nil
	}
	// The hook interpreter resolves entry phis against no predecessor, which
	// fails before the first step.
	entry := f.Entry()
	if phis := entry.Phis(); len(phis) > 0 {
		p.err = fmt.Errorf("interp: %s.%s: phi %s has no incoming edge from %s",
			f.Name, entry.Name, phis[0].Dst, (*ir.Block)(nil))
	}
	p.blocks = make([]planBlock, len(f.Blocks))
	preds := make([][]*ir.Block, len(f.Blocks))

	// Unique predecessor lists index the phi move tables.
	for i, b := range f.Blocks {
		seen := make(map[*ir.Block]bool, len(b.Preds))
		for _, pr := range b.Preds {
			if !seen[pr] {
				seen[pr] = true
				preds[i] = append(preds[i], pr)
			}
		}
	}
	predSlotOf := func(to *ir.Block, from *ir.Block) int32 {
		for k, pr := range preds[to.Index] {
			if pr == from {
				return int32(k)
			}
		}
		return -1
	}

	for i, b := range f.Blocks {
		pb := &p.blocks[i]
		phis := b.Phis()
		pb.phis = phis
		if len(phis) > p.maxPhis {
			p.maxPhis = len(phis)
		}
		term := b.Term()
		if term == nil {
			p.fail(fmt.Errorf("interp: %s.%s: block does not end in a terminator", f.Name, b.Name))
			continue
		}
		pb.term = term
		pb.body = b.Instrs[len(phis) : len(b.Instrs)-1]
		for _, in := range pb.body {
			if in.Op == ir.OpCall {
				p.calls = true
			} else if in.Op.IsTerminator() {
				p.fail(fmt.Errorf("interp: %s.%s: interior terminator %s", f.Name, b.Name, in.Op))
			}
		}

		// Move tables: for each unique predecessor, the parallel-copy the
		// phi prefix performs. A phi lacking an incoming edge leaves a nil
		// table, reproducing the interpreter's runtime error on traversal.
		if len(phis) > 0 {
			pb.moves = make([][]phiMove, len(preds[i]))
			for slot, pr := range preds[i] {
				moves := make([]phiMove, 0, len(phis))
				ok := true
				for _, phi := range phis {
					idx := -1
					for k, from := range phi.Blocks {
						if from == pr {
							idx = k
							break
						}
					}
					if idx < 0 {
						ok = false
						break
					}
					moves = append(moves, phiMove{dst: phi.Dst, src: phi.Args[idx]})
				}
				if ok {
					pb.moves[slot] = moves
				}
			}
		}

		switch term.Op {
		case ir.OpRet:
			pb.kind = termRet
			pb.retReg = ir.NoReg
			if len(term.Args) == 1 {
				pb.retReg = term.Args[0]
			}
		case ir.OpBr, ir.OpCondBr:
			if term.Op == ir.OpBr {
				pb.kind = termBr
			} else {
				pb.kind = termCond
				pb.condReg = term.Args[0]
			}
			for k, target := range term.Blocks {
				slot := int32(len(p.edgeFrom))
				// Parallel condbr edges (both targets identical) are one CFG
				// edge: reuse the slot allocated for the first arm.
				if k == 1 && term.Blocks[0] == target {
					slot = p.blocks[i].succs[0].edgeSlot
				} else {
					p.edgeFrom = append(p.edgeFrom, int32(i))
					p.edgeTo = append(p.edgeTo, int32(target.Index))
				}
				taken := uint8(0)
				if term.Blocks[0] == target {
					taken = 1
				}
				pb.succs[k] = planSucc{
					to:       int32(target.Index),
					edgeSlot: slot,
					predSlot: predSlotOf(target, b),
					taken:    taken,
				}
			}
		default:
			p.fail(fmt.Errorf("interp: %s.%s: unknown terminator %s", f.Name, b.Name, term.Op))
		}
	}

	// Timing packets: the dynamic feed sequence of each block (phi prefix,
	// body, terminator) flattened into dense arrays, so a timed run hands
	// its Timing one FeedBlock per executed block. A plan
	// with an error never executes, so it does not pay for packets.
	if p.err == nil {
		var seq []*ir.Instr
		pks := make([]*TimingPacket, len(p.blocks))
		nBody := 0
		for i := range p.blocks {
			pb := &p.blocks[i]
			seq = seq[:0]
			seq = append(seq, pb.phis...)
			seq = append(seq, pb.body...)
			seq = append(seq, pb.term)
			pb.packet = referenceNewTimingPacket(seq)
			pks[i] = pb.packet
			if pb.packet.NumMem > p.maxMem {
				p.maxMem = pb.packet.NumMem
			}
			nBody += len(pb.body)
		}
		referenceCompactPackets(pks)

		// Dense execution records for the body dispatch, one arena for the
		// whole plan.
		code := make([]execEntry, nBody)
		n := 0
		for i := range p.blocks {
			pb := &p.blocks[i]
			pb.code = code[n : n+len(pb.body) : n+len(pb.body)]
			for j, in := range pb.body {
				e := &pb.code[j]
				e.op = in.Op
				e.dst = int32(in.Dst)
				e.imm = in.Imm
				switch len(in.Args) {
				case 0:
				case 1:
					e.a0 = int32(in.Args[0])
				case 2:
					e.a0, e.a1 = int32(in.Args[0]), int32(in.Args[1])
				default:
					e.a0, e.a1, e.a2 = int32(in.Args[0]), int32(in.Args[1]), int32(in.Args[2])
				}
			}
			n += len(pb.body)
		}
	}
	return p, preds
}

// referenceNewTimingPacket compiles an instruction sequence into a packet. The
// sequence must list the instructions in dynamic feed order; phi entries
// carry every incoming register as a source, exactly as the per-instruction
// feed exposes them.
func referenceNewTimingPacket(instrs []*ir.Instr) *TimingPacket {
	n := len(instrs)
	pk := &TimingPacket{
		Ent:    make([]TimingEntry, n),
		SrcOff: make([]int32, n+1),
	}
	for i, in := range instrs {
		e := &pk.Ent[i]
		e.Op = uint8(in.Op)
		switch {
		case in.Op.IsMemory():
			e.Class = TimingClassMem
			pk.NumMem++
		case in.Op.IsFloat():
			e.Class = TimingClassFP
		default:
			e.Class = TimingClassInt
		}
		e.Dst = -1
		if in.Op.HasDest() {
			e.Dst = int32(in.Dst)
		}
		pk.SrcOff[i] = int32(len(pk.Srcs))
		for _, r := range in.Args {
			if r != ir.NoReg {
				pk.Srcs = append(pk.Srcs, int32(r))
			}
		}
		switch ns := int(pk.SrcOff[i]); len(pk.Srcs) - ns {
		case 0:
		case 1:
			e.NSrc = 1
			e.Src0 = pk.Srcs[ns]
		case 2:
			e.NSrc = 2
			e.Src0, e.Src1 = pk.Srcs[ns], pk.Srcs[ns+1]
		default:
			e.NSrc = 3
			e.Src0, e.Src1 = pk.Srcs[ns], pk.Srcs[ns+1]
		}
	}
	pk.SrcOff[n] = int32(len(pk.Srcs))
	pk.CondBr = n > 0 && instrs[n-1].Op == ir.OpCondBr
	return pk
}

// referenceCompactPackets re-backs the packets of a plan's blocks with shared arenas
// so consecutive blocks' entries are contiguous: the capture loop bounces
// between a handful of hot blocks, and one arena keeps all of them in a few
// cache lines instead of one tiny allocation per parallel array per block.
func referenceCompactPackets(pks []*TimingPacket) {
	var totE, totS int
	for _, pk := range pks {
		totE += len(pk.Ent)
		totS += len(pk.Srcs)
	}
	entArena := make([]TimingEntry, 0, totE)
	srcArena := make([]int32, 0, totS)
	offArena := make([]int32, 0, totE+len(pks))
	for _, pk := range pks {
		e0 := len(entArena)
		entArena = append(entArena, pk.Ent...)
		pk.Ent = entArena[e0:len(entArena):len(entArena)]
		s0 := len(srcArena)
		srcArena = append(srcArena, pk.Srcs...)
		pk.Srcs = srcArena[s0:len(srcArena):len(srcArena)]
		o0 := len(offArena)
		offArena = append(offArena, pk.SrcOff...)
		pk.SrcOff = offArena[o0:len(offArena):len(offArena)]
	}
}
