// Package wire is the positional binary encoding every persisted pipeline
// artifact is written in. A payload is a fixed sequence of fields with no
// names, tags or type information: integers as varints (unsigned for
// counts, indices and IDs, zig-zag signed otherwise), floats as their eight
// IEEE-754 bytes in little-endian order, and strings and slices as a
// uvarint length followed by their elements. Each artifact type writes and
// reads its own fields, next to its definition.
//
// Reader is the one decoder they share. It treats its input as hostile: a
// malformed varint, a length or count larger than the bytes left, and
// bytes left over after the last field are all errors, and a count is
// checked before the caller allocates anything for it. The first error
// sticks; every later read returns a zero value, so a decoder reads all its
// fields and checks Done once.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
)

// The reader's errors are fixed values, so rejecting hostile bytes
// allocates nothing.
var (
	errTruncated = errors.New("wire: truncated or malformed field")
	errCount     = errors.New("wire: count exceeds the bytes left")
	errRange     = errors.New("wire: value out of range")
	errTrailing  = errors.New("wire: trailing bytes after the last field")
)

// AppendUvarint appends v as an unsigned varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag signed varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendFloat64 appends the eight little-endian bytes of v's IEEE-754 bits.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends s's length as a uvarint, then its bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendUints appends a list of non-negative integers: its length, then
// each element, as uvarints.
func AppendUints[T ~uint8 | ~int | ~int32 | ~int64](b []byte, s []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	for _, v := range s {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// Uints reads a list AppendUints wrote, each element below limit, which
// must not exceed T's maximum. An empty list reads as nil.
func Uints[T ~uint8 | ~int | ~int32 | ~int64](r *Reader, limit int) []T {
	n := r.Count()
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = T(r.Index(limit))
	}
	return s
}

// Buffer appends fields in this package's conventions to B. With Sink set
// it streams instead: before a field that might not fit in B's free
// capacity it writes B to Sink and starts B over, so B never grows and a
// payload of any size is written through one fixed buffer. A streaming
// Buffer needs a capacity of at least binary.MaxVarintLen64 bytes, its
// caller writes what is left with Flush, and its Sink must not fail, as a
// hash.Hash never does: Flush drops the error.
type Buffer struct {
	B    []byte
	Sink io.Writer
}

// room makes n bytes free in B when streaming.
func (b *Buffer) room(n int) {
	if b.Sink != nil && cap(b.B)-len(b.B) < n {
		b.Flush()
	}
}

// Flush writes B to Sink and empties B.
func (b *Buffer) Flush() {
	b.Sink.Write(b.B) //nolint:errcheck // a Sink never fails, see Buffer
	b.B = b.B[:0]
}

// Uvarint appends v as AppendUvarint does.
func (b *Buffer) Uvarint(v uint64) {
	b.room(binary.MaxVarintLen64)
	b.B = binary.AppendUvarint(b.B, v)
}

// Varint appends v as AppendVarint does.
func (b *Buffer) Varint(v int64) {
	b.room(binary.MaxVarintLen64)
	b.B = binary.AppendVarint(b.B, v)
}

// Uint64 appends v's eight little-endian bytes.
func (b *Buffer) Uint64(v uint64) {
	b.room(8)
	b.B = binary.LittleEndian.AppendUint64(b.B, v)
}

// Raw appends s's bytes with no length.
func (b *Buffer) Raw(s string) {
	if b.Sink == nil {
		b.B = append(b.B, s...)
		return
	}
	for {
		n := copy(b.B[len(b.B):cap(b.B)], s)
		b.B = b.B[:len(b.B)+n]
		if s = s[n:]; s == "" {
			return
		}
		b.Flush()
	}
}

// String appends s as AppendString does.
func (b *Buffer) String(s string) {
	b.Uvarint(uint64(len(s)))
	b.Raw(s)
}

// Reader decodes one payload. It advances an offset into a buffer that
// never changes, so a read stores no pointer, and takes no GC write
// barrier while a collection marks. The zero Reader is an empty payload.
type Reader struct {
	buf []byte
	off int // bytes of buf already read
	err error
}

// NewReader reads payload b. The Reader never writes to b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error the reader met, or nil.
func (r *Reader) Err() error { return r.err }

// left returns the bytes not yet read.
func (r *Reader) left() []byte { return r.buf[r.off:] }

// Done returns the first error, or an error when bytes are left over: a
// decoder calls it after its last field.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = errTrailing
	}
	return r.err
}

// fail records err, unless the reader already failed.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) truncated() {
	r.fail(errTruncated)
	r.off = len(r.buf)
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.left())
	if n <= 0 {
		r.truncated()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.left())
	if n <= 0 {
		r.truncated()
		return 0
	}
	r.off += n
	return v
}

// Int reads a signed varint that must fit an int.
func (r *Reader) Int() int {
	v := r.Varint()
	if int64(int(v)) != v {
		r.fail(errRange)
		return 0
	}
	return int(v)
}

// Index reads an unsigned varint that must be below n.
func (r *Reader) Index(n int) int {
	v := r.Uvarint()
	if r.err == nil && v >= uint64(n) {
		r.fail(errRange)
		return 0
	}
	return int(v)
}

// Count reads a slice length. Every element takes at least one byte, so a
// count larger than the bytes left is an error, reported before the caller
// allocates for it.
func (r *Reader) Count() int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(len(r.buf)-r.off) {
		r.fail(errCount)
		return 0
	}
	return int(v)
}

// Fits reports whether n more elements of at least one byte each can
// follow, failing the reader if not: the check for a count the layout
// implies instead of storing.
func (r *Reader) Fits(n int) bool {
	if r.err == nil && n > len(r.buf)-r.off {
		r.fail(errCount)
	}
	return r.err == nil
}

// Rest returns the bytes left, without copying, and consumes them: the
// read for a last field whose layout its own decoder checks.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	b := r.left()
	r.off = len(r.buf)
	return b
}

// Float64 reads eight little-endian bytes as an IEEE-754 double.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf)-r.off < 8 {
		r.truncated()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.left()))
	r.off += 8
	return v
}

// Text reads a length-prefixed string, copying its bytes.
func (r *Reader) Text() string {
	n := r.Count()
	if r.err != nil {
		return ""
	}
	s := string(r.buf[r.off : r.off+n])
	r.off += n
	return s
}
