package sim

import (
	"math"
	"reflect"
	"testing"

	"needle/internal/workloads"
)

// TestPackedOccurrencesRoundTrip: a trace's occurrences survive Data and
// TraceFromData exactly, and so do the extreme values of both fields.
func TestPackedOccurrencesRoundTrip(t *testing.T) {
	tr := capture(t, "186.crafty", 400)
	d := tr.Data()
	f, _, _ := workloads.ByName("186.crafty").Instance(400)
	back, err := TraceFromData(nil, f, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Occ, tr.Occ) {
		t.Fatalf("occurrences differ after the round trip (%d vs %d)", len(back.Occ), len(tr.Occ))
	}
	if cap(back.Occ) != len(back.Occ) {
		t.Fatalf("decoded slice has capacity %d for %d occurrences", cap(back.Occ), len(back.Occ))
	}

	edge := []Occurrence{
		{}, {Hist: math.MaxUint64, Cycles: math.MaxInt64}, {Hist: 1, Cycles: math.MinInt64},
		{Hist: 127, Cycles: -1}, {Hist: 128, Cycles: 64},
	}
	got, err := unpackOccurrences(packOccurrences(edge), len(edge))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, edge) {
		t.Fatalf("edge values: got %+v, want %+v", got, edge)
	}
}

// TestPackedOccurrencesRejectTruncation: a payload cut short, or with bytes
// left over after the trace's occurrence count, is a decode error — never
// a shorter or zero-padded trace.
func TestPackedOccurrencesRejectTruncation(t *testing.T) {
	occ := []Occurrence{{Hist: math.MaxUint64, Cycles: 3}, {Hist: 5, Cycles: 300}, {Hist: 0, Cycles: -7}}
	buf := packOccurrences(occ)
	for n := 0; n < len(buf); n++ {
		if _, err := unpackOccurrences(buf[:n], len(occ)); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", n, len(buf))
		}
	}
	if _, err := unpackOccurrences(append(buf, 0), len(occ)); err == nil {
		t.Error("trailing byte decoded without error")
	}
	if _, err := unpackOccurrences(buf, len(occ)-1); err == nil {
		t.Error("payload longer than the trace decoded without error")
	}

	tr := capture(t, "164.gzip", 400)
	d := tr.Data()
	d.Occ = d.Occ[:len(d.Occ)-1]
	f, _, _ := workloads.ByName("164.gzip").Instance(400)
	if _, err := TraceFromData(nil, f, d); err == nil {
		t.Error("TraceFromData accepted a truncated occurrence payload")
	}
}
