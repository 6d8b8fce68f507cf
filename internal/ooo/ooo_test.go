package ooo

import (
	"math/rand"
	"reflect"
	"testing"

	"needle/internal/interp"
	"needle/internal/ir"
	"needle/internal/mem"
)

// feedN feeds n copies of a simple independent int op.
func indepInstr(dst ir.Reg) *ir.Instr {
	return &ir.Instr{Op: ir.OpConst, Type: ir.I64, Dst: dst, Imm: 1}
}

func TestWidthBoundsIndependentOps(t *testing.T) {
	m := New(DefaultConfig(), 300, nil)
	for i := 0; i < 200; i++ {
		m.Feed(indepInstr(ir.Reg(i+1)), 0)
	}
	// 200 independent 1-cycle ops, 4-wide, 6 ALUs: fetch-limited at 4/cycle
	// -> about 50 cycles.
	if c := m.Cycles(); c < 50 || c > 55 {
		t.Fatalf("cycles = %d, want ~50", c)
	}
	if ipc := m.IPC(); ipc < 3.5 || ipc > 4.1 {
		t.Fatalf("IPC = %v, want ~4", ipc)
	}
}

func TestDependenceChainSerializes(t *testing.T) {
	m := New(DefaultConfig(), 300, nil)
	m.Feed(indepInstr(1), 0)
	for i := 2; i <= 100; i++ {
		in := &ir.Instr{Op: ir.OpAdd, Type: ir.I64, Dst: ir.Reg(i), Args: []ir.Reg{ir.Reg(i - 1), ir.Reg(i - 1)}}
		m.Feed(in, 0)
	}
	// A 100-deep chain of 1-cycle adds takes >= 100 cycles.
	if c := m.Cycles(); c < 100 {
		t.Fatalf("cycles = %d, want >= 100 for a dependence chain", c)
	}
	if ipc := m.IPC(); ipc > 1.05 {
		t.Fatalf("IPC = %v, want ~1", ipc)
	}
}

func TestFPUThroughputLimit(t *testing.T) {
	m := New(DefaultConfig(), 300, nil)
	for i := 0; i < 100; i++ {
		in := &ir.Instr{Op: ir.OpFAdd, Type: ir.F64, Dst: ir.Reg(i + 1), Args: []ir.Reg{ir.Reg(i + 1), ir.Reg(i + 1)}}
		// Self-referential args resolve to ready time of an unset reg: fine,
		// the constraint under test is the 2-FPU structural limit.
		m.Feed(in, 0)
	}
	// 100 FP ops over 2 FPUs >= 50 cycles regardless of independence.
	if c := m.Cycles(); c < 50 {
		t.Fatalf("cycles = %d, want >= 50 (2 FPUs)", c)
	}
	if m.Mix.FP != 100 {
		t.Fatalf("FP mix = %d", m.Mix.FP)
	}
}

func TestROBWindowStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROB = 8
	small := New(cfg, 300, nil)
	big := New(DefaultConfig(), 300, nil)
	// One very slow op followed by many independent ops: the small window
	// must stall behind the slow op.
	for _, m := range []*Model{small, big} {
		slow := &ir.Instr{Op: ir.OpDiv, Type: ir.I64, Dst: 1, Args: []ir.Reg{2, 2}}
		m.Feed(slow, 0)
		for i := 0; i < 64; i++ {
			m.Feed(indepInstr(ir.Reg(i+10)), 0)
		}
	}
	if small.Cycles() <= big.Cycles() {
		t.Fatalf("small ROB (%d cycles) should be slower than big ROB (%d)",
			small.Cycles(), big.Cycles())
	}
}

func TestMemoryLatencyFromCache(t *testing.T) {
	cache := mem.New(mem.Config{})
	m := New(DefaultConfig(), 300, cache)
	ld := &ir.Instr{Op: ir.OpLoad, Type: ir.I64, Dst: 1, Args: []ir.Reg{2}}
	m.Feed(ld, 100) // cold miss: 22 cycles
	use := &ir.Instr{Op: ir.OpAdd, Type: ir.I64, Dst: 3, Args: []ir.Reg{1, 1}}
	m.Feed(use, 0)
	if c := m.Cycles(); c < 23 {
		t.Fatalf("cycles = %d, want >= 23 (load miss + dependent add)", c)
	}
	if m.Mix.Mem != 1 {
		t.Fatalf("mem mix = %d", m.Mix.Mem)
	}
}

func TestHooksDriveModel(t *testing.T) {
	src := `func @k(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [body: r5]
  r4 = cmp.lt r3, r1
  condbr r4, %body, %exit
body:
  r6 = add r3, r3
  r7 = const.i64 1
  r5 = add r3, r7
  br %head
exit:
  ret r3
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig(), f.NumRegs(), nil)
	res, err := interp.Run(f, []uint64{interp.IBits(50)}, nil, m.Hooks(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Instructions() != res.Steps {
		t.Fatalf("model saw %d instrs, interpreter ran %d", m.Instructions(), res.Steps)
	}
	if m.Cycles() <= 0 {
		t.Fatal("no cycles accumulated")
	}
	if m.Mix.Total != res.Steps {
		t.Fatalf("mix total = %d", m.Mix.Total)
	}
}

func TestLatencyTable(t *testing.T) {
	if Latency(ir.OpAdd) != 1 || Latency(ir.OpMul) != 3 || Latency(ir.OpFDiv) != 12 {
		t.Fatal("latency table broken")
	}
	if Latency(ir.OpExp) <= Latency(ir.OpFMul) {
		t.Fatal("transcendentals should be slower than multiplies")
	}
}

func TestRealBranchPredictorCostsCycles(t *testing.T) {
	src := `func @noisy(i64, i64) {
entry:
  r3 = const.i64 0
  br %head
head:
  r4 = phi.i64 [entry: r3] [latch: r5]
  r6 = phi.i64 [entry: r3] [latch: r7]
  r8 = cmp.lt r4, r2
  condbr r8, %body, %exit
body:
  r9 = add r1, r4
  r10 = load.i64 r9
  r11 = const.i64 1
  r12 = and r10, r11
  r13 = cmp.eq r12, r3
  condbr r13, %even, %odd
even:
  r14 = add r6, r10
  br %latch
odd:
  r15 = sub r6, r10
  br %latch
latch:
  r7 = phi.i64 [even: r14] [odd: r15]
  r5 = add r4, r11
  br %head
exit:
  ret r6
}
`
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	memory := make([]uint64, 256)
	for i := range memory {
		memory[i] = uint64(i * 2654435761) // noisy parity
	}
	args := []uint64{interp.IBits(0), interp.IBits(256)}

	run := func(cfg Config) *Model {
		m := New(cfg, f.NumRegs(), nil)
		work := make([]uint64, len(memory))
		copy(work, memory)
		if _, err := interp.Run(f, args, work, m.Hooks(), 0); err != nil {
			t.Fatal(err)
		}
		return m
	}
	perfect := run(DefaultConfig())
	realCfg := DefaultConfig()
	realCfg.RealBranchPredictor = true
	real := run(realCfg)

	if real.Mispredicts == 0 {
		t.Fatal("noisy parity should cause mispredictions")
	}
	if real.Cycles() <= perfect.Cycles() {
		t.Fatalf("real BP (%d cycles) should be slower than perfect (%d)", real.Cycles(), perfect.Cycles())
	}
	if perfect.Mispredicts != 0 {
		t.Fatal("perfect BP should not count mispredictions")
	}
}

// randBlock generates a random straight-line instruction sequence ending
// (sometimes) in a conditional branch, using 1-based registers only: the
// packet fast path encodes absent source slots as NoReg (register 0), whose
// ready time must stay pinned at zero.
func randBlock(rng *rand.Rand, numRegs int) ([]*ir.Instr, bool) {
	reg := func() ir.Reg { return ir.Reg(1 + rng.Intn(numRegs)) }
	n := 1 + rng.Intn(12)
	instrs := make([]*ir.Instr, 0, n+1)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0:
			instrs = append(instrs, &ir.Instr{Op: ir.OpConst, Type: ir.I64, Dst: reg(), Imm: int64(rng.Intn(100))})
		case 1:
			instrs = append(instrs, &ir.Instr{Op: ir.OpMul, Type: ir.I64, Dst: reg(), Args: []ir.Reg{reg(), reg()}})
		case 2:
			instrs = append(instrs, &ir.Instr{Op: ir.OpFMul, Type: ir.F64, Dst: reg(), Args: []ir.Reg{reg(), reg()}})
		case 3:
			instrs = append(instrs, &ir.Instr{Op: ir.OpLoad, Type: ir.I64, Dst: reg(), Args: []ir.Reg{reg()}})
		case 4:
			instrs = append(instrs, &ir.Instr{Op: ir.OpStore, Type: ir.I64, Args: []ir.Reg{reg(), reg()}})
		case 5:
			// Wide phi move: 3+ sources spill to the packet's overflow span.
			args := make([]ir.Reg, 3+rng.Intn(4))
			for j := range args {
				args[j] = reg()
			}
			instrs = append(instrs, &ir.Instr{Op: ir.OpPhi, Type: ir.I64, Dst: reg(), Args: args})
		case 6:
			instrs = append(instrs, &ir.Instr{Op: ir.OpCopy, Type: ir.I64, Dst: reg(), Args: []ir.Reg{reg()}})
		default:
			instrs = append(instrs, &ir.Instr{Op: ir.OpAdd, Type: ir.I64, Dst: reg(), Args: []ir.Reg{reg(), reg()}})
		}
	}
	condBr := rng.Intn(2) == 0
	if condBr {
		instrs = append(instrs, &ir.Instr{Op: ir.OpCondBr, Type: ir.I64, Args: []ir.Reg{reg()}})
	}
	return instrs, condBr
}

// stateOf snapshots every piece of model state the batched path touches.
func stateOf(m *Model) map[string]any {
	return map[string]any{
		"regReady":    append([]int64(nil), m.regReady...),
		"aluFree":     append([]int64(nil), m.aluFree...),
		"fpuFree":     append([]int64(nil), m.fpuFree...),
		"rob":         append([]int64(nil), m.rob...),
		"robHead":     m.robHead,
		"count":       m.count,
		"fetch":       m.fetch,
		"fetchRem":    m.fetchRem,
		"lastDone":    m.lastDone,
		"bpTable":     append([]int8(nil), m.bpTable...),
		"history":     m.history,
		"stallUntil":  m.stallUntil,
		"lastBranch":  m.lastBranch,
		"Mix":         m.Mix,
		"Mispredicts": m.Mispredicts,
		"Branches":    m.Branches,
		"cacheStats":  m.cache.Stats,
	}
}

// TestFeedBlockMatchesSequentialFeed pins the batched-vs-hooked equivalence
// contract: feeding a timing packet through FeedBlock must leave the model in
// exactly the state that feeding its instructions one Feed call at a time
// does — including the gshare predictor path, small-ROB stalls, and partial
// packets (a block abandoned mid-body by a fault or step limit).
func TestFeedBlockMatchesSequentialFeed(t *testing.T) {
	configs := []Config{
		DefaultConfig(),
		{Width: 2, ROB: 4, ALUs: 1, FPUs: 1}, // tiny ROB: window stalls
		{Width: 4, ROB: 96, ALUs: 6, FPUs: 2, RealBranchPredictor: true,
			BPBits: 6, MispredictPenalty: 12},
	}
	const numRegs = 24 // small register file: dense dependence chains
	for ci, cfg := range configs {
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		batched := New(cfg, numRegs, mem.New(mem.Config{}))
		oracle := New(cfg, numRegs, mem.New(mem.Config{}))
		for blk := 0; blk < 300; blk++ {
			instrs, condBr := randBlock(rng, numRegs)
			pk := interp.NewTimingPacket(instrs)
			// Occasionally feed a partial packet, as the capture loop does
			// when a block faults or hits the step limit mid-body.
			n := len(instrs)
			partial := rng.Intn(8) == 0
			if partial {
				n = rng.Intn(len(instrs) + 1)
			}
			addrs := make([]int64, 0, pk.NumMem)
			for _, in := range instrs[:n] {
				if in.Op.IsMemory() {
					addrs = append(addrs, int64(rng.Intn(4096)))
				}
			}
			batched.FeedBlock(pk, n, addrs)
			ai := 0
			for _, in := range instrs[:n] {
				addr := int64(0)
				if in.Op.IsMemory() {
					addr = addrs[ai]
					ai++
				}
				oracle.Feed(in, addr)
			}
			if condBr && !partial {
				taken := rng.Intn(2) == 0
				batched.NoteBranch(taken)
				oracle.NoteBranch(taken)
			}
			if got, want := stateOf(batched), stateOf(oracle); !reflect.DeepEqual(got, want) {
				for k := range got {
					if !reflect.DeepEqual(got[k], want[k]) {
						t.Errorf("config %d block %d: %s diverged: batched %v, oracle %v",
							ci, blk, k, got[k], want[k])
					}
				}
				t.Fatalf("config %d: FeedBlock diverged from sequential Feed at block %d", ci, blk)
			}
		}
		if batched.Cycles() == 0 || batched.Instructions() == 0 {
			t.Fatalf("config %d: degenerate run (cycles=%d instrs=%d)",
				ci, batched.Cycles(), batched.Instructions())
		}
	}
}
