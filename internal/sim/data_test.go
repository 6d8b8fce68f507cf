package sim

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"needle/internal/ir"
	"needle/internal/profile"
	"needle/internal/wire"
	"needle/internal/workloads"
)

// decode reads an encoded trace back and rehydrates it against f.
func decode(f *ir.Function, b []byte) (*Trace, error) {
	r := wire.NewReader(b)
	d := ReadTraceData(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return TraceFromData(nil, f, d)
}

// TestPackedOccurrencesRoundTrip: a trace's occurrences survive Data,
// encoding, decoding and TraceFromData exactly — the cycles stored, the
// history table rebuilt from the path table — and so do extreme cycle
// values.
func TestPackedOccurrencesRoundTrip(t *testing.T) {
	tr := capture(t, "186.crafty", 400)
	d, err := tr.Data()
	if err != nil {
		t.Fatal(err)
	}
	f, _, _ := workloads.ByName("186.crafty").Instance(400)
	back, err := decode(f, d.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Cycles, tr.Cycles) || !slices.Equal(back.RunCycles, tr.RunCycles) || !slices.Equal(back.offs, tr.offs) {
		t.Fatalf("occurrences differ after the round trip (%d vs %d bytes)", len(back.Cycles), len(tr.Cycles))
	}
	if !reflect.DeepEqual(back.hist, tr.hist) {
		t.Fatal("history tables differ after the round trip")
	}
	if n := profile.Occurrences(tr.Profile.Runs); len(tr.Occ) != n || len(back.Occ) != n {
		t.Fatalf("Occ has %d captured and %d decoded entries for %d occurrences", len(tr.Occ), len(back.Occ), n)
	}
	if back.BaselineCycles != tr.BaselineCycles || back.BaselineEnergyPJ != tr.BaselineEnergyPJ ||
		back.Mix != tr.Mix || back.CacheStats != tr.CacheStats {
		t.Fatal("scalar observations differ after the round trip")
	}

	edge := []int64{0, math.MaxInt64, math.MinInt64, -1, 64}
	d.Cycles = nil
	for i := range profile.Occurrences(tr.Profile.Runs) {
		d.Cycles = wire.AppendVarint(d.Cycles, edge[i%len(edge)])
	}
	back, err = decode(f, d.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for j, run := range back.Profile.Runs {
		var sum int64
		for range run.Len {
			sum += edge[k%len(edge)]
			k++
		}
		if back.RunCycles[j] != sum {
			t.Fatalf("run %d: sum %d, want %d", j, back.RunCycles[j], sum)
		}
	}
	for i, c := range occCycles(back) {
		if c != edge[i%len(edge)] {
			t.Fatalf("occurrence %d: got cycles %d, want %d", i, c, edge[i%len(edge)])
		}
	}
}

// TestPackedOccurrencesRejectTruncation: a payload cut short anywhere, or
// with a byte left over, is a decode error — never a shorter or
// zero-padded trace — and so is a cycle column one short of the trace.
func TestPackedOccurrencesRejectTruncation(t *testing.T) {
	tr := capture(t, "164.gzip", 400)
	d, err := tr.Data()
	if err != nil {
		t.Fatal(err)
	}
	f, _, _ := workloads.ByName("164.gzip").Instance(400)
	buf := d.Append(nil)
	cuts := map[int]bool{}
	for n := 0; n < 64 && n < len(buf); n++ {
		cuts[n], cuts[len(buf)-1-n] = true, true
	}
	for n := 0; n < len(buf); n += len(buf)/200 + 1 {
		cuts[n] = true
	}
	for n := range cuts {
		if _, err := decode(f, buf[:n]); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", n, len(buf))
		}
	}
	if _, err := decode(f, append(buf, 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}

	short := *d
	short.Cycles = short.Cycles[:len(short.Cycles)-1]
	for len(short.Cycles) > 0 && short.Cycles[len(short.Cycles)-1] >= 0x80 {
		short.Cycles = short.Cycles[:len(short.Cycles)-1] // drop the whole last varint
	}
	if _, err := TraceFromData(nil, f, &short); err == nil {
		t.Error("TraceFromData accepted a truncated cycle column")
	}
}

// TestTraceFromDataBytes pins what decoding a stored trace allocates on
// 186.crafty, whose path table is the largest, and 197.parser, whose runs
// are the shortest: nothing per occurrence, whose host cycles stay in the
// payload they were read from; 20 B per run (its entry in the decoded run
// table, its cycle sum and the offset of its first varint); 4 B per path
// block (the block-index arena); 150 B per path (its ID as read, its
// record, history table entry and share of the rebuilt profile's tables:
// about 130 B measured on crafty, whose map growth varies); 512 B per
// block of the function (the analyses the rebuilt profile runs, and the
// history table's per-block table); and 16 KiB. A decode that kept one
// word per occurrence would cost crafty 240 KB and parser 96 KB, more than
// that allows.
func TestTraceFromDataBytes(t *testing.T) {
	if n := unsafe.Sizeof(rankHist{}); n != 32 {
		t.Fatalf("a history table entry takes %d bytes; pipeline's resident-size estimate charges 32", n)
	}
	for _, name := range []string{"186.crafty", "197.parser"} {
		tr := capture(t, name, 0)
		d, err := tr.Data()
		if err != nil {
			t.Fatal(err)
		}
		buf := d.Append(nil)
		f, _, _ := inlined(t, workloads.ByName(name), 0)
		const decodes = 5
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var back *Trace
		for range decodes {
			if back, err = decode(f, buf); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / decodes
		runs, paths, blocks := len(tr.Profile.Runs), len(tr.Profile.Paths), 0
		for _, p := range tr.Profile.Paths {
			blocks += len(p.Blocks)
		}
		if limit := uint64(20*runs + 4*blocks + 150*paths + 512*len(f.Blocks) + 16<<10); got > limit {
			t.Errorf("%s: a decode allocates %d B, over %d for %d runs, %d paths of %d blocks and a function of %d blocks",
				name, got, limit, runs, paths, blocks, len(f.Blocks))
		}
		// The packed cycles end the payload; the decoded trace keeps them
		// where they were read.
		if n := len(back.Cycles); n == 0 || unsafe.SliceData(back.Cycles) != &buf[len(buf)-n] {
			t.Errorf("%s: the decoded trace's %d bytes of cycles do not alias the payload's last %d", name, n, n)
		}
	}
}
