package sim

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"needle/internal/ir"
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
	if !reflect.DeepEqual(back.Occ, tr.Occ) || !reflect.DeepEqual(back.RunCycles, tr.RunCycles) {
		t.Fatalf("occurrences differ after the round trip (%d vs %d)", len(back.Occ), len(tr.Occ))
	}
	if !reflect.DeepEqual(back.hist, tr.hist) {
		t.Fatal("history tables differ after the round trip")
	}
	if cap(back.Occ) != len(back.Occ) {
		t.Fatalf("decoded slice has capacity %d for %d occurrences", cap(back.Occ), len(back.Occ))
	}
	if back.BaselineCycles != tr.BaselineCycles || back.BaselineEnergyPJ != tr.BaselineEnergyPJ ||
		back.Mix != tr.Mix || back.CacheStats != tr.CacheStats {
		t.Fatal("scalar observations differ after the round trip")
	}

	edge := []int64{0, math.MaxInt64, math.MinInt64, -1, 64}
	d.Cycles = d.Cycles[:0:0]
	for i := range tr.Occ {
		d.Cycles = wire.AppendVarint(d.Cycles, edge[i%len(edge)])
	}
	back, err = decode(f, d.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range back.Occ {
		if o.Cycles != edge[i%len(edge)] {
			t.Fatalf("occurrence %d: got %+v, want cycles %d", i, o, edge[i%len(edge)])
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
// are the shortest: 8 B per occurrence, its host cycles, plus 16 B per run
// (its cycle sum and its entry in the decoded run table), 470 B per path
// (its record, block arena, indexes and history table entry, and its share
// of the analyses the rebuilt profile runs: 447–453 B measured on crafty,
// whose map growth varies) and 16 KiB. An occurrence that stored one more
// word would cost crafty 240 KB and parser 96 KB, more than that allows.
func TestTraceFromDataBytes(t *testing.T) {
	if n := unsafe.Sizeof(Occurrence{}); n != 8 {
		t.Fatalf("an occurrence takes %d bytes, want 8", n)
	}
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
		for range decodes {
			if _, err := decode(f, buf); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := (after.TotalAlloc - before.TotalAlloc) / decodes
		occ, runs, paths := len(tr.Occ), len(tr.Profile.Runs), len(tr.Profile.Paths)
		if limit := uint64(8*occ + 16*runs + 470*paths + 16<<10); got > limit {
			t.Errorf("%s: a decode allocates %d B, over %d for %d occurrences, %d runs and %d paths",
				name, got, limit, occ, runs, paths)
		}
	}
}
