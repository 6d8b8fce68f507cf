package ballarus

import (
	"testing"

	"needle/internal/ir"
)

func parse(t testing.TB, src string) *ir.Function {
	t.Helper()
	f, err := ir.ParseFunction(src)
	if err != nil {
		t.Fatalf("ParseFunction: %v", err)
	}
	return f
}

// diamond has 2 paths: entry->left->join and entry->right->join.
const diamondSrc = `func @diamond(i64) {
entry:
  r2 = const.i64 0
  r3 = cmp.lt r1, r2
  condbr r3, %left, %right
left:
  r4 = add r1, r1
  br %join
right:
  r5 = mul r1, r1
  br %join
join:
  r6 = phi.i64 [left: r4] [right: r5]
  ret r6
}
`

// loopDiamond: a loop whose body is an if-diamond. Acyclic paths:
//
//	entry->head->exit                    (enter, zero iterations)
//	entry->head->even/odd->latch         (first iteration)  x2
//	head->even/odd->latch                (middle iteration) x2
//	head->exit                           (loop exit)
const loopDiamondSrc = `func @loopdiamond(i64) {
entry:
  r2 = const.i64 0
  br %head
head:
  r3 = phi.i64 [entry: r2] [latch: r10]
  r4 = phi.i64 [entry: r2] [latch: r9]
  r5 = cmp.lt r4, r1
  condbr r5, %body, %exit
body:
  r6 = const.i64 2
  r7 = rem r4, r6
  r8 = cmp.ne r7, r2
  condbr r8, %odd, %latch
odd:
  r11 = const.i64 3
  r12 = mul r4, r11
  br %latch
latch:
  r13 = phi.i64 [body: r4] [odd: r12]
  r10 = add r3, r13
  r14 = const.i64 1
  r9 = add r4, r14
  br %head
exit:
  ret r3
}
`

// LoopDiamondSrc exports loopDiamondSrc to the external tests of the hook
// profiler (profiler_test.go), which cannot be in-package: the oracle
// package imports ballarus.
const LoopDiamondSrc = loopDiamondSrc

func TestNumPathsDiamond(t *testing.T) {
	d, err := Build(nil, parse(t, diamondSrc))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if d.NumPaths() != 2 {
		t.Fatalf("NumPaths = %d, want 2", d.NumPaths())
	}
}

func TestNumPathsLoopDiamond(t *testing.T) {
	d, err := Build(nil, parse(t, loopDiamondSrc))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// From entry: head->exit, head->body->{latch,odd->latch} = 3.
	// From dummy entry at head: same 3.
	if d.NumPaths() != 6 {
		t.Fatalf("NumPaths = %d, want 6", d.NumPaths())
	}
}

func TestDecodeAllPathsUniqueAndValid(t *testing.T) {
	d, err := Build(nil, parse(t, loopDiamondSrc))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	seen := make(map[string]int64)
	for id := int64(0); id < d.NumPaths(); id++ {
		blocks, err := d.DecodeAppend(nil, id)
		if err != nil {
			t.Fatalf("DecodeAppend(%d): %v", id, err)
		}
		key := ""
		for _, b := range blocks {
			key += b.Name + ">"
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("paths %d and %d decode to the same sequence %s", prev, id, key)
		}
		seen[key] = id
		// Consecutive blocks must be connected by real CFG edges.
		for i := 0; i+1 < len(blocks); i++ {
			ok := false
			for _, s := range blocks[i].Succs() {
				if s == blocks[i+1] {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("path %d: %s does not branch to %s", id, blocks[i], blocks[i+1])
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, src := range []string{diamondSrc, loopDiamondSrc} {
		d, err := Build(nil, parse(t, src))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		for id := int64(0); id < d.NumPaths(); id++ {
			blocks, err := d.DecodeAppend(nil, id)
			if err != nil {
				t.Fatalf("DecodeAppend(%d): %v", id, err)
			}
			back, err := d.Encode(blocks)
			if err != nil {
				t.Fatalf("Encode(%v): %v", blocks, err)
			}
			if back != id {
				t.Fatalf("Encode(DecodeAppend(%d)) = %d", id, back)
			}
		}
	}
}

func TestDecodeRejectsOutOfRange(t *testing.T) {
	d, err := Build(nil, parse(t, diamondSrc))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := d.DecodeAppend(nil, -1); err == nil {
		t.Error("DecodeAppend(-1) should fail")
	}
	if _, err := d.DecodeAppend(nil, d.NumPaths()); err == nil {
		t.Error("DecodeAppend(NumPaths) should fail")
	}
	if _, err := d.PathLen(-1); err == nil {
		t.Error("PathLen(-1) should fail")
	}
	if _, err := d.PathLen(d.NumPaths()); err == nil {
		t.Error("PathLen(NumPaths) should fail")
	}
}

// TestDecodeAppendIntoSizedBuffer decodes every path back to back into one
// buffer sized by PathLen: each decode fills exactly PathLen(id) slots after
// what is already there, and allocates nothing.
func TestDecodeAppendIntoSizedBuffer(t *testing.T) {
	d, err := Build(nil, parse(t, loopDiamondSrc))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	total := 0
	for id := int64(0); id < d.NumPaths(); id++ {
		n, err := d.PathLen(id)
		if err != nil {
			t.Fatalf("PathLen(%d): %v", id, err)
		}
		total += n
	}
	buf := make([]*ir.Block, 0, total)
	ends := make([]int, d.NumPaths())
	allocs := testing.AllocsPerRun(1, func() {
		buf = buf[:0]
		for id := int64(0); id < d.NumPaths(); id++ {
			buf, err = d.DecodeAppend(buf, id)
			ends[id] = len(buf)
		}
	})
	if err != nil {
		t.Fatalf("DecodeAppend: %v", err)
	}
	if allocs != 0 {
		t.Errorf("decoding into a sized buffer allocated %v times", allocs)
	}
	if len(buf) != total || cap(buf) != total {
		t.Fatalf("buffer len %d cap %d, want both %d", len(buf), cap(buf), total)
	}
	start := 0
	for id := int64(0); id < d.NumPaths(); id++ {
		want, _ := d.DecodeAppend(nil, id)
		got := buf[start:ends[id]]
		if len(got) != len(want) {
			t.Fatalf("path %d: %d blocks in the buffer, %d decoded alone", id, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("path %d block %d: %s in the buffer, %s decoded alone", id, i, got[i].Name, want[i].Name)
			}
		}
		start = ends[id]
	}
}

func TestBuildRejectsIrreducible(t *testing.T) {
	// Two blocks jumping into each other's middle from the entry: neither
	// dominates the other, so the cycle has no dominance back edge.
	src := `func @irr(i64) {
entry:
  r2 = const.i64 0
  r3 = cmp.lt r1, r2
  condbr r3, %a, %b
a:
  r4 = cmp.gt r1, r2
  condbr r4, %b, %exit
b:
  r5 = cmp.eq r1, r2
  condbr r5, %a, %exit
exit:
  ret
}
`
	if _, err := Build(nil, parse(t, src)); err == nil {
		t.Fatal("expected irreducible CFG error")
	}
}

func TestIsBackEdge(t *testing.T) {
	f := parse(t, loopDiamondSrc)
	d, err := Build(nil, f)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	latch := f.BlockByName("latch")
	head := f.BlockByName("head")
	body := f.BlockByName("body")
	if !d.IsBackEdge(latch, head) {
		t.Error("latch->head should be a back edge")
	}
	if d.IsBackEdge(head, body) {
		t.Error("head->body should not be a back edge")
	}
}

func TestPathOpsCountsAllInstrs(t *testing.T) {
	f := parse(t, diamondSrc)
	d, err := Build(nil, f)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for id := int64(0); id < 2; id++ {
		blocks, _ := d.DecodeAppend(nil, id)
		// entry(3) + side(2) + join(2) = 7 instructions either way.
		if got := PathOps(blocks); got != 7 {
			t.Errorf("PathOps(path %d) = %d, want 7", id, got)
		}
	}
}

func TestBuildRejectsPathExplosion(t *testing.T) {
	// 50 sequential diamonds = 2^50 paths, beyond the representable bound.
	b := ir.NewBuilder("boom", ir.I64)
	zero := b.ConstI(0)
	v := b.Param(0)
	for k := 0; k < 50; k++ {
		cond := b.CmpGT(v, zero)
		tb := b.NewBlock("t")
		fb := b.NewBlock("f")
		join := b.NewBlock("j")
		// Unique names required:
		tb.Name = tb.Name + string(rune('a'+k%26)) + string(rune('0'+k/26))
		fb.Name = fb.Name + string(rune('a'+k%26)) + string(rune('0'+k/26))
		join.Name = join.Name + string(rune('a'+k%26)) + string(rune('0'+k/26))
		b.CondBr(cond, tb, fb)
		b.SetBlock(tb)
		tv := b.Add(v, zero)
		b.Br(join)
		b.SetBlock(fb)
		fv := b.Sub(v, zero)
		b.Br(join)
		b.SetBlock(join)
		p := b.Phi(ir.I64)
		b.AddIncoming(p, tb, tv)
		b.AddIncoming(p, fb, fv)
		v = p
	}
	b.Ret(v)
	f := b.MustFinish()
	if _, err := Build(nil, f); err == nil {
		t.Fatal("expected path-count overflow error")
	}
}
