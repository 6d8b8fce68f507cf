// Package ooo is the host-core timing model: a streaming, dependence-based
// out-of-order scheduler with the Table V parameters (4-wide issue, 96-entry
// ROB, 6 ALUs, 2 FPUs, perfect branch prediction). It consumes the dynamic
// instruction stream one executed block at a time, as the compiled plan's
// timing packets (interp.RunProfiled feeds FeedBlock and NoteBranch through
// interp.Timing), and reports the cycle count the modeled core would need —
// the same first-order model the paper's macsim-based simulator provides.
// It also keeps the run's global branch-history register.
package ooo

import (
	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/mem"
)

// Config holds the core parameters.
type Config struct {
	Width int // fetch/issue width per cycle
	ROB   int // reorder-buffer entries
	ALUs  int // integer units
	FPUs  int // floating-point units

	// RealBranchPredictor disables the paper's perfect-branch-prediction
	// assumption (Table V) and models a gshare-style predictor with the
	// given misprediction penalty. Kept for the ablation benchmarks; the
	// default evaluation follows the paper and leaves this off.
	RealBranchPredictor bool
	BPBits              uint  // history bits indexing the predictor table
	MispredictPenalty   int64 // pipeline refill cycles per misprediction
}

// DefaultConfig returns the Table V host core (perfect branch prediction).
func DefaultConfig() Config {
	return Config{Width: 4, ROB: 96, ALUs: 6, FPUs: 2, BPBits: 12, MispredictPenalty: 12}
}

// Latency returns the execution latency of an opcode on the host core,
// excluding memory (loads take their latency from the cache model).
func Latency(op ir.Op) int64 {
	switch op {
	case ir.OpMul:
		return 3
	case ir.OpDiv, ir.OpRem:
		return 12
	case ir.OpFAdd, ir.OpFSub:
		return 4
	case ir.OpFMul:
		return 5
	case ir.OpFDiv, ir.OpSqrt:
		return 12
	case ir.OpExp, ir.OpLog:
		return 20
	case ir.OpSIToFP, ir.OpFPToSI:
		return 4
	}
	return 1
}

// opLat is Latency as an array lookup, for FeedBlock's per-entry path.
// Sized generously past the last opcode (OpRet).
var opLat [64]int64

func init() {
	for op := ir.Op(0); op <= ir.OpRet; op++ {
		opLat[op] = Latency(op)
	}
}

// OpMix counts executed instructions by class, for the energy model.
type OpMix struct {
	Int   int64 // integer ALU ops (compares, moves, branches included)
	FP    int64 // floating-point ops
	Mem   int64 // loads and stores
	Total int64
}

// Model is the streaming timing model. Feed it the dynamic instruction
// stream block by block with FeedBlock, report every conditional branch
// with NoteBranch, and read Cycles at the end.
type Model struct {
	cfg   Config
	cache *mem.Cache

	regReady []int64 // cycle each register's value becomes available
	aluFree  []int64 // next free cycle per ALU
	fpuFree  []int64 // next free cycle per FPU
	rob      []int64 // ring buffer of finish times of in-flight instrs
	robHead  int

	count    int64 // instructions fed
	fetch    int64 // count / Width, maintained incrementally
	fetchRem int64 // count % Width
	lastDone int64 // max finish time

	// history is the global branch-history register: NoteBranch shifts in
	// 1 for taken, 0 for fall-through. The predictor indexes its table
	// with it.
	history uint64

	// Branch predictor state (RealBranchPredictor only).
	bpTable    []int8
	stallUntil int64 // fetch stalls until this cycle after a misprediction
	lastBranch int64 // finish time of the most recent conditional branch

	Mix OpMix

	// Mispredicts counts wrong predictions when the real predictor is on.
	Mispredicts int64
	Branches    int64
}

// New creates a model over a register file of the given size, using the
// cache for load latencies. A nil cache gets the default hierarchy.
func New(cfg Config, numRegs int, cache *mem.Cache) *Model {
	if cfg.Width <= 0 {
		cfg = DefaultConfig()
	}
	if cache == nil {
		cache = mem.New(mem.Config{})
	}
	m := &Model{
		cfg:      cfg,
		cache:    cache,
		regReady: make([]int64, numRegs+1),
		aluFree:  make([]int64, cfg.ALUs),
		fpuFree:  make([]int64, cfg.FPUs),
		rob:      make([]int64, cfg.ROB),
	}
	if cfg.RealBranchPredictor {
		bits := cfg.BPBits
		if bits == 0 || bits > 20 {
			bits = 12
		}
		m.bpTable = make([]int8, 1<<bits)
		for i := range m.bpTable {
			m.bpTable[i] = 2
		}
	}
	return m
}

// Cache returns the cache model in use.
func (m *Model) Cache() *mem.Cache { return m.cache }

// NoteBranch shifts a conditional branch outcome into the history register
// and, when the real predictor is on, first predicts and trains it; call it
// right after feeding the branch instruction.
func (m *Model) NoteBranch(taken bool) {
	h := m.history
	m.history = h<<1 | b2u(taken)
	if m.bpTable == nil {
		return
	}
	m.Branches++
	idx := h & uint64(len(m.bpTable)-1)
	predictTaken := m.bpTable[idx] >= 2
	if predictTaken != taken {
		m.Mispredicts++
		// Fetch refills after the branch resolves.
		if t := m.lastBranch + m.cfg.MispredictPenalty; t > m.stallUntil {
			m.stallUntil = t
		}
	}
	if taken {
		if m.bpTable[idx] < 3 {
			m.bpTable[idx]++
		}
	} else if m.bpTable[idx] > 0 {
		m.bpTable[idx]--
	}
}

// History returns the global branch-history register: one bit per
// conditional branch noted so far, the most recent in bit 0.
func (m *Model) History() uint64 { return m.history }

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}

// FeedBlock schedules the first n entries of a precompiled timing packet,
// the model's one feed: a timed interp.RunProfiled calls it once per
// executed block. addrs holds the effective word addresses of the packet's
// memory entries in order (trailing extras are ignored). All
// per-instruction state (fetch group, ROB slot, unit pools, register-ready
// times) is walked with plain array indexing and hoisted locals; no
// *ir.Instr is touched. The package tests pin it against a per-instruction
// reference feed.
func (m *Model) FeedBlock(pk *interp.TimingPacket, n int, addrs []int64) {
	if n <= 0 {
		return
	}
	regReady := m.regReady
	aluFree, fpuFree := m.aluFree, m.fpuFree
	rob := m.rob
	robHead := m.robHead
	fetch, fetchRem, width := m.fetch, m.fetchRem, int64(m.cfg.Width)
	lastDone := m.lastDone
	stall := m.stallUntil
	ents := pk.Ent[:n]
	var nFP, nMem int64
	mi := 0
	var finish int64
	for i := range ents {
		e := &ents[i]
		ready := fetch
		fetchRem++
		if fetchRem == width {
			fetchRem = 0
			fetch++
		}
		// ROB constraint: the slot of the instruction ROB-entries older.
		if w := rob[robHead]; w > ready {
			ready = w
		}
		if stall > ready {
			ready = stall
		}
		// Dependences: the two inlined sources cover everything but wide phi
		// moves, which spill to the packet's overflow span. Absent slots
		// hold NoReg (register 0), whose ready time is pinned at zero — so
		// both reads are unconditional and the max is exact without
		// branching on the source count.
		if r := e.Src0; int(r) < len(regReady) && regReady[r] > ready {
			ready = regReady[r]
		}
		if r := e.Src1; int(r) < len(regReady) && regReady[r] > ready {
			ready = regReady[r]
		}
		if e.NSrc > 2 {
			offs, srcs := pk.SrcOff, pk.Srcs
			for k, end := offs[i]+2, offs[i+1]; k < end; k++ {
				if r := srcs[k]; int(r) < len(regReady) && regReady[r] > ready {
					ready = regReady[r]
				}
			}
		}

		// Unit class: bit 0 selects the pool (Int=0, Mem=2 -> ALUs;
		// FP=1 -> FPUs), and only memory ops leave the static latency table
		// for the cache model.
		var lat int64
		pool := aluFree
		if e.Class&1 != 0 {
			nFP++
			pool = fpuFree
		}
		if e.Class == interp.TimingClassMem {
			nMem++
			lat = m.cache.Access(addrs[mi])
			mi++
		} else {
			lat = opLat[e.Op]
		}

		// Earliest-free-unit argmin, unrolled for the Table V pool sizes
		// (6 ALUs, 2 FPUs); ties pick the lowest index, as the generic scan
		// does.
		var best int
		var bestT int64
		switch len(pool) {
		case 6:
			best, bestT = 0, pool[0]
			if t := pool[1]; t < bestT {
				best, bestT = 1, t
			}
			if t := pool[2]; t < bestT {
				best, bestT = 2, t
			}
			if t := pool[3]; t < bestT {
				best, bestT = 3, t
			}
			if t := pool[4]; t < bestT {
				best, bestT = 4, t
			}
			if t := pool[5]; t < bestT {
				best, bestT = 5, t
			}
		case 2:
			best, bestT = 0, pool[0]
			if t := pool[1]; t < bestT {
				best, bestT = 1, t
			}
		default:
			best, bestT = 0, pool[0]
			for u := 1; u < len(pool); u++ {
				if t := pool[u]; t < bestT {
					best, bestT = u, t
				}
			}
		}
		issue := ready
		if bestT > issue {
			issue = bestT
		}
		pool[best] = issue + 1
		finish = issue + lat

		if d := e.Dst; d >= 0 && int(d) < len(regReady) {
			regReady[d] = finish
		}
		rob[robHead] = finish
		robHead++
		if robHead == len(rob) {
			robHead = 0
		}
		if finish > lastDone {
			lastDone = finish
		}
	}
	m.fetch, m.fetchRem = fetch, fetchRem
	m.robHead = robHead
	m.lastDone = lastDone
	m.count += int64(n)
	m.Mix.Total += int64(n)
	m.Mix.FP += nFP
	m.Mix.Mem += nMem
	m.Mix.Int += int64(n) - nFP - nMem
	if pk.CondBr && n == pk.Len() {
		m.lastBranch = finish
	}
}

// Cycles returns the cycle count of everything fed so far.
func (m *Model) Cycles() int64 { return m.lastDone }

// Instructions returns the number of instructions fed.
func (m *Model) Instructions() int64 { return m.count }

// IPC returns retired instructions per cycle.
func (m *Model) IPC() float64 {
	if m.lastDone == 0 {
		return 0
	}
	return float64(m.count) / float64(m.lastDone)
}
