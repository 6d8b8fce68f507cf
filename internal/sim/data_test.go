package sim

import (
	"math"
	"reflect"
	"testing"

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
// encoding, decoding and TraceFromData exactly — the cycles stored, every
// history rebuilt from the path trace — and so do extreme cycle values.
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
	if !reflect.DeepEqual(back.Occ, tr.Occ) {
		t.Fatalf("occurrences differ after the round trip (%d vs %d)", len(back.Occ), len(tr.Occ))
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
		if o.Cycles != edge[i%len(edge)] || o.Hist != tr.Occ[i].Hist {
			t.Fatalf("occurrence %d: got %+v, want cycles %d hist %#x", i, o, edge[i%len(edge)], tr.Occ[i].Hist)
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
