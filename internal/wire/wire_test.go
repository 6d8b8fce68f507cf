package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, math.MaxUint64)
	b = AppendVarint(b, math.MinInt64)
	b = AppendFloat64(b, -1.5)
	b = AppendString(b, "needle")
	b = AppendUvarint(b, 3)
	b = AppendVarint(b, -7)
	r := NewReader(b)
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Errorf("Varint = %d", v)
	}
	if v := r.Float64(); v != -1.5 {
		t.Errorf("Float64 = %v", v)
	}
	if s := r.Text(); s != "needle" {
		t.Errorf("Text = %q", s)
	}
	if i := r.Index(4); i != 3 {
		t.Errorf("Index = %d", i)
	}
	if i := r.Int(); i != -7 {
		t.Errorf("Int = %d", i)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestHostileInput: every malformed shape is an error that sticks, and
// reads after it return zero values.
func TestHostileInput(t *testing.T) {
	cases := map[string]func(r *Reader){
		"truncated varint": func(r *Reader) { r.Uvarint() },
		"short float":      func(r *Reader) { r.Float64() },
		"index past n":     func(r *Reader) { r.Index(2) },
		"count past end":   func(r *Reader) { r.Count() },
		"text past end":    func(r *Reader) { r.Text() },
		"fits past end":    func(r *Reader) { r.Fits(3) },
	}
	inputs := map[string][]byte{
		"truncated varint": {0x80},
		"short float":      {1, 2, 3},
		"index past n":     {2},
		"count past end":   {3, 1, 1},
		"text past end":    {9, 'a'},
		"fits past end":    {1, 1},
	}
	for name, read := range cases {
		r := NewReader(inputs[name])
		read(r)
		if r.Err() == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		if v := r.Uvarint(); v != 0 {
			t.Errorf("%s: read after the error returned %d", name, v)
		}
		if r.Done() == nil {
			t.Errorf("%s: Done after an error returned nil", name)
		}
	}
	r := NewReader([]byte{1, 0})
	r.Uvarint()
	if r.Done() == nil {
		t.Error("trailing byte: Done returned nil")
	}
}

// TestCountLargerThanInputAllocatesNothing: a count prefix beyond the bytes
// left fails before any caller can allocate for it.
func TestCountLargerThanInputAllocatesNothing(t *testing.T) {
	huge := AppendUvarint(nil, 1<<60)
	allocs := testing.AllocsPerRun(100, func() {
		r := Reader{buf: huge}
		if n := r.Count(); n != 0 || r.err == nil {
			t.Fatalf("count %d accepted", n)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations rejecting a huge count", allocs)
	}
}

// TestBufferStreamsLikeAppend: a streaming Buffer hands its sink exactly
// the bytes the Append functions build, through a buffer that never grows.
func TestBufferStreamsLikeAppend(t *testing.T) {
	long := strings.Repeat("needle", 40)
	var want []byte
	want = AppendString(want, long)
	want = AppendUvarint(want, math.MaxUint64)
	want = AppendVarint(want, math.MinInt64)
	want = binary.LittleEndian.AppendUint64(want, 42)
	want = append(want, long...)

	var sink bytes.Buffer
	b := Buffer{B: make([]byte, 0, binary.MaxVarintLen64), Sink: &sink}
	b.String(long)
	b.Uvarint(math.MaxUint64)
	b.Varint(math.MinInt64)
	b.Uint64(42)
	b.Raw(long)
	if cap(b.B) != binary.MaxVarintLen64 {
		t.Errorf("buffer grew to %d bytes", cap(b.B))
	}
	b.Flush()
	if !bytes.Equal(sink.Bytes(), want) {
		t.Errorf("streamed %x, want %x", sink.Bytes(), want)
	}

	// Without a sink it appends.
	a := Buffer{}
	a.String(long)
	if !bytes.Equal(a.B, AppendString(nil, long)) {
		t.Errorf("appended %x", a.B)
	}
}
