// Package wire implements the little-endian binary codec used to persist
// indexes to disk. It follows the sticky-error pattern: a Writer or Reader
// records the first failure and turns every subsequent operation into a
// no-op, so serializers read as straight-line code with a single error
// check at the end.
//
// Format conventions: unsigned integers are varint-encoded, signed
// integers zigzag+varint, floats are fixed-width IEEE-754 little-endian,
// and every slice/string is length-prefixed. Readers bound every length
// prefix (MaxLen) so corrupt or adversarial input cannot trigger huge
// allocations.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MaxLen bounds any single length prefix accepted by a Reader.
const MaxLen = 1 << 30

// Writer serializes values to an io.Writer with a sticky error.
type Writer struct {
	w   *bufio.Writer
	err error
	buf [binary.MaxVarintLen64]byte
	n   int64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Err returns the first error encountered.
func (w *Writer) Err() error { return w.err }

// BytesWritten returns the number of payload bytes written so far.
func (w *Writer) BytesWritten() int64 { return w.n }

// Flush drains the buffer and returns the sticky error, if any.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = err
	}
	return w.err
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	w.n += int64(n)
	if err != nil {
		w.err = err
	}
}

// U64 writes an unsigned varint.
func (w *Writer) U64(v uint64) {
	n := binary.PutUvarint(w.buf[:], v)
	w.write(w.buf[:n])
}

// I64 writes a signed integer (zigzag varint).
func (w *Writer) I64(v int64) {
	n := binary.PutVarint(w.buf[:], v)
	w.write(w.buf[:n])
}

// Int writes an int as I64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bool writes a single byte 0/1.
func (w *Writer) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	w.write([]byte{b})
}

// F64 writes a fixed-width float64.
func (w *Writer) F64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	w.write(b[:])
}

// F32 writes a fixed-width float32.
func (w *Writer) F32(v float32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
	w.write(b[:])
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.write([]byte(s))
}

// F32s writes a length-prefixed []float32.
func (w *Writer) F32s(xs []float32) {
	w.U64(uint64(len(xs)))
	for _, x := range xs {
		w.F32(x)
	}
}

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(xs []float64) {
	w.U64(uint64(len(xs)))
	for _, x := range xs {
		w.F64(x)
	}
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(xs []int) {
	w.U64(uint64(len(xs)))
	for _, x := range xs {
		w.I64(int64(x))
	}
}

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(xs []int32) {
	w.U64(uint64(len(xs)))
	for _, x := range xs {
		w.I64(int64(x))
	}
}

// Bytes writes a length-prefixed raw byte slice in one shot (no per-byte
// framing — used for bulk payloads like quantized code rows).
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.write(p)
}

// Words writes a length-prefixed []uint64 as fixed-width little-endian
// words. Packed bit payloads (binary sketches) have uniformly random high
// bits, so varint framing would cost 10 bytes per word; fixed width keeps
// them at 8.
func (w *Writer) Words(xs []uint64) {
	w.U64(uint64(len(xs)))
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		w.write(b[:])
	}
}

// Strings writes a length-prefixed []string.
func (w *Writer) Strings(xs []string) {
	w.U64(uint64(len(xs)))
	for _, x := range xs {
		w.String(x)
	}
}

// Reader deserializes values with a sticky error.
type Reader struct {
	r   *bufio.Reader
	err error
	max uint64 // bound on any length prefix
}

// NewReader wraps r. When r reports its size (bytes.Reader,
// io.SectionReader), no length prefix may exceed it: every element takes
// at least a byte, so a corrupt prefix fails before it allocates.
func NewReader(r io.Reader) *Reader {
	rd := &Reader{r: bufio.NewReader(r), max: MaxLen}
	if s, ok := r.(interface{ Size() int64 }); ok && s.Size() >= 0 && uint64(s.Size()) < rd.max {
		rd.max = uint64(s.Size())
	}
	return rd
}

// Err returns the first error encountered.
func (r *Reader) Err() error { return r.err }

// Limit returns the bound on any length prefix (MaxLen, or the input size
// when NewReader could learn it). Decoders that read an element count
// outside a length prefix bound it by this before allocating.
func (r *Reader) Limit() int { return int(r.max) }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("wire: uvarint: %w", err))
		return 0
	}
	return v
}

// I64 reads a signed integer.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("wire: varint: %w", err))
		return 0
	}
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// Bool reads a 0/1 byte.
func (r *Reader) Bool() bool {
	var b [1]byte
	r.readFull(b[:])
	return b[0] != 0
}

// F64 reads a fixed-width float64.
func (r *Reader) F64() float64 {
	var b [8]byte
	r.readFull(b[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// F32 reads a fixed-width float32.
func (r *Reader) F32() float32 {
	var b [4]byte
	r.readFull(b[:])
	return math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
}

// lenPrefix reads and bounds a length prefix.
func (r *Reader) lenPrefix() int {
	n := r.U64()
	if n > r.max {
		r.fail(fmt.Errorf("wire: length %d exceeds limit", n))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.lenPrefix()
	if r.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	r.readFull(b)
	if r.err != nil {
		return ""
	}
	return string(b)
}

// F32s reads a length-prefixed []float32.
func (r *Reader) F32s() []float32 {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = r.F32()
	}
	return xs
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.F64()
	}
	return xs
}

// Ints reads a length-prefixed []int.
func (r *Reader) Ints() []int {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(r.I64())
	}
	return xs
}

// I32s reads a length-prefixed []int32.
func (r *Reader) I32s() []int32 {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]int32, n)
	for i := range xs {
		xs[i] = int32(r.I64())
	}
	return xs
}

// Bytes reads a length-prefixed raw byte slice written by Writer.Bytes.
func (r *Reader) Bytes() []byte {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	p := make([]byte, n)
	r.readFull(p)
	if r.err != nil {
		return nil
	}
	return p
}

// Words reads a length-prefixed fixed-width []uint64 written by
// Writer.Words.
func (r *Reader) Words() []uint64 {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]uint64, n)
	var b [8]byte
	for i := range xs {
		r.readFull(b[:])
		xs[i] = binary.LittleEndian.Uint64(b[:])
	}
	if r.err != nil {
		return nil
	}
	return xs
}

// Strings reads a length-prefixed []string.
func (r *Reader) Strings() []string {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]string, n)
	for i := range xs {
		xs[i] = r.String()
	}
	return xs
}

func (r *Reader) readFull(p []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.fail(fmt.Errorf("wire: read: %w", err))
	}
}

// Magic writes/checks a format tag; use at section boundaries so format
// drift fails loudly instead of mis-parsing.
func (w *Writer) Magic(tag string) { w.String(tag) }

// ExpectMagic verifies the next string equals tag.
func (r *Reader) ExpectMagic(tag string) {
	got := r.String()
	if r.err == nil && got != tag {
		r.fail(fmt.Errorf("wire: expected section %q, found %q", tag, got))
	}
}
