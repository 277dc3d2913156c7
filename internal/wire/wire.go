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
//
// Slices move in bulk: fixed-width payloads (float32, float64, uint64)
// are converted through one reused chunk buffer per Writer or Reader,
// varint slices are encoded into it and decoded from windows of the read
// buffer, and a string slice is read into one arena. No path allocates
// per element, so a section costs what its bytes cost to copy.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
)

// MaxLen bounds any single length prefix accepted by a Reader.
const MaxLen = 1 << 30

// chunkSize is the size of the buffer bulk sections are converted
// through: large enough that a Reader fills it with reads that bypass its
// bufio buffer, a multiple of every fixed width, and allocated only by a
// Writer or Reader that meets a bulk section.
const chunkSize = 64 << 10

// Writer serializes values to an io.Writer with a sticky error.
type Writer struct {
	w     *bufio.Writer
	err   error
	buf   [binary.MaxVarintLen64]byte
	n     int64
	chunk []byte // see chunkSize
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

func (w *Writer) writeString(s string) {
	if w.err != nil {
		return
	}
	n, err := w.w.WriteString(s)
	w.n += int64(n)
	if err != nil {
		w.err = err
	}
}

// space returns the chunk buffer, which a bulk path fills and hands to
// write before it asks for it again.
func (w *Writer) space() []byte {
	if w.chunk == nil {
		w.chunk = make([]byte, chunkSize)
	}
	return w.chunk
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
	if w.err != nil {
		return
	}
	b := byte(0)
	if v {
		b = 1
	}
	if err := w.w.WriteByte(b); err != nil {
		w.err = err
		return
	}
	w.n++
}

// F64 writes a fixed-width float64.
func (w *Writer) F64(v float64) {
	binary.LittleEndian.PutUint64(w.buf[:], math.Float64bits(v))
	w.write(w.buf[:8])
}

// F32 writes a fixed-width float32.
func (w *Writer) F32(v float32) {
	binary.LittleEndian.PutUint32(w.buf[:], math.Float32bits(v))
	w.write(w.buf[:4])
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.writeString(s)
}

// F32Block writes xs as fixed-width float32s with no length prefix: the
// reader knows the count from the section's shape (vec.Matrix rows).
// F32Block, F32s and the other slice writers produce exactly the bytes of
// writing their elements one by one.
func (w *Writer) F32Block(xs []float32) {
	for len(xs) > 0 && w.err == nil {
		k := min(len(xs), chunkSize/4)
		b := w.space()[:4*k]
		putF32s(b, xs[:k])
		w.write(b)
		xs = xs[k:]
	}
}

// U16Block writes xs as fixed-width little-endian uint16s with no length
// prefix: the reader knows the count from the section's shape (a hash
// family's binary16 directions).
func (w *Writer) U16Block(xs []uint16) {
	for len(xs) > 0 && w.err == nil {
		b := w.space()
		k := min(len(xs), len(b)/2)
		for i, x := range xs[:k] {
			binary.LittleEndian.PutUint16(b[2*i:], x)
		}
		w.write(b[:2*k])
		xs = xs[k:]
	}
}

// putF32s encodes xs into b, 4 bytes each. The loop is unrolled by four,
// which more than doubles its speed; the rows of an index are most of its
// bytes.
func putF32s(b []byte, xs []float32) {
	for len(xs) >= 4 && len(b) >= 16 {
		binary.LittleEndian.PutUint32(b[0:4], math.Float32bits(xs[0]))
		binary.LittleEndian.PutUint32(b[4:8], math.Float32bits(xs[1]))
		binary.LittleEndian.PutUint32(b[8:12], math.Float32bits(xs[2]))
		binary.LittleEndian.PutUint32(b[12:16], math.Float32bits(xs[3]))
		xs, b = xs[4:], b[16:]
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(x))
	}
}

// getF32s is putF32s's inverse.
func getF32s(xs []float32, b []byte) {
	for len(xs) >= 4 && len(b) >= 16 {
		xs[0] = math.Float32frombits(binary.LittleEndian.Uint32(b[0:4]))
		xs[1] = math.Float32frombits(binary.LittleEndian.Uint32(b[4:8]))
		xs[2] = math.Float32frombits(binary.LittleEndian.Uint32(b[8:12]))
		xs[3] = math.Float32frombits(binary.LittleEndian.Uint32(b[12:16]))
		xs, b = xs[4:], b[16:]
	}
	for i := range xs {
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// F32s writes a length-prefixed []float32.
func (w *Writer) F32s(xs []float32) {
	w.U64(uint64(len(xs)))
	w.F32Block(xs)
}

// F64s writes a length-prefixed []float64.
func (w *Writer) F64s(xs []float64) {
	w.U64(uint64(len(xs)))
	for len(xs) > 0 && w.err == nil {
		b := w.space()
		k := min(len(xs), len(b)/8)
		for i, x := range xs[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		w.write(b[:8*k])
		xs = xs[k:]
	}
}

// Ints writes a length-prefixed []int.
func (w *Writer) Ints(xs []int) { w.IntsVia(xs, nil) }

// IntsVia writes xs as Ints does, with each x written as via[x] when via
// is non-nil: a slice of ids stored under one numbering is written under
// another without a translated copy.
func (w *Writer) IntsVia(xs, via []int) {
	w.U64(uint64(len(xs)))
	putVarints(w, xs, via)
}

// I32s writes a length-prefixed []int32.
func (w *Writer) I32s(xs []int32) {
	w.U64(uint64(len(xs)))
	putVarints(w, xs, nil)
}

// putVarints writes xs as zigzag varints, a chunk at a time, each x
// replaced by via[x] when via is non-nil.
func putVarints[T int | int32](w *Writer, xs []T, via []int) {
	for len(xs) > 0 && w.err == nil {
		b := w.space()[:0]
		for len(xs) > 0 && len(b) <= chunkSize-binary.MaxVarintLen64 {
			x := int64(xs[0])
			if via != nil {
				x = int64(via[x])
			}
			b = binary.AppendVarint(b, x)
			xs = xs[1:]
		}
		w.write(b)
	}
}

// Bytes writes a length-prefixed raw byte slice in one shot (no per-byte
// framing — used for bulk payloads like quantized code rows).
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	w.write(p)
}

// ByteBlock writes p raw with no length prefix: the part of a Bytes
// payload a writer streams piece by piece after writing its length.
func (w *Writer) ByteBlock(p []byte) { w.write(p) }

// Words writes a length-prefixed []uint64 as fixed-width little-endian
// words. Packed bit payloads (binary sketches) have uniformly random high
// bits, so varint framing would cost 10 bytes per word; fixed width keeps
// them at 8.
func (w *Writer) Words(xs []uint64) {
	w.U64(uint64(len(xs)))
	w.WordBlock(xs)
}

// WordBlock writes xs as Words does with no length prefix: the part of a
// Words payload a writer streams piece by piece after writing its length.
func (w *Writer) WordBlock(xs []uint64) {
	for len(xs) > 0 && w.err == nil {
		b := w.space()
		k := min(len(xs), len(b)/8)
		for i, x := range xs[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
		w.write(b[:8*k])
		xs = xs[k:]
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
	r     *bufio.Reader
	err   error
	max   uint64 // bound on any length prefix
	chunk []byte // see chunkSize
	ends  []int  // Strings' offsets into its arena
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
	b := r.take(1)
	return b != nil && b[0] != 0
}

// F64 reads a fixed-width float64.
func (r *Reader) F64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// F32 reads a fixed-width float32.
func (r *Reader) F32() float32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}

// take consumes the next n bytes, n at most the read buffer's size, and
// returns them as a view of that buffer, valid until the next read; nil
// after an error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	b, err := r.r.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		r.fail(fmt.Errorf("wire: read: %w", err))
		return nil
	}
	r.r.Discard(n)
	return b
}

// next reads the next min(rem, chunkSize) bytes of a fixed-width section
// into the chunk buffer and returns them; nil after an error.
func (r *Reader) next(rem int) []byte {
	if r.chunk == nil {
		r.chunk = make([]byte, chunkSize)
	}
	b := r.chunk[:min(rem, chunkSize)]
	r.readFull(b)
	if r.err != nil {
		return nil
	}
	return b
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
	if n <= r.r.Size() {
		return string(r.take(n))
	}
	b := make([]byte, n)
	r.readFull(b)
	if r.err != nil {
		return ""
	}
	return string(b)
}

// F32Block fills xs with fixed-width float32s written by
// Writer.F32Block.
func (r *Reader) F32Block(xs []float32) {
	for len(xs) > 0 {
		b := r.next(4 * len(xs))
		if b == nil {
			return
		}
		k := len(b) / 4
		getF32s(xs[:k], b)
		xs = xs[k:]
	}
}

// U16Block fills xs with fixed-width uint16s written by Writer.U16Block.
func (r *Reader) U16Block(xs []uint16) {
	for len(xs) > 0 {
		b := r.next(2 * len(xs))
		if b == nil {
			return
		}
		k := len(b) / 2
		for i := range xs[:k] {
			xs[i] = binary.LittleEndian.Uint16(b[2*i:])
		}
		xs = xs[k:]
	}
}

// F32s reads a length-prefixed []float32.
func (r *Reader) F32s() []float32 {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]float32, n)
	r.F32Block(xs)
	return xs
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]float64, n)
	for rest := xs; len(rest) > 0; {
		b := r.next(8 * len(rest))
		if b == nil {
			break
		}
		k := len(b) / 8
		for i := range rest[:k] {
			rest[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		rest = rest[k:]
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
	readVarints(r, xs)
	return xs
}

// I32s reads a length-prefixed []int32.
func (r *Reader) I32s() []int32 {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]int32, n)
	readVarints(r, xs)
	return xs
}

// readVarints fills xs with zigzag varints, decoding them straight out of
// the read buffer a window at a time. It accepts exactly what I64 does,
// element by element.
func readVarints[T int | int32](r *Reader, xs []T) {
	for len(xs) > 0 && r.err == nil {
		// Everything buffered, or the next varint's worth when nothing is:
		// never more than the input holds, so a stream is not waited on.
		b, err := r.r.Peek(max(r.r.Buffered(), binary.MaxVarintLen64))
		at, k := 0, 0
		for len(xs) > 0 {
			var v int64
			if v, k = binary.Varint(b[at:]); k <= 0 {
				break
			}
			xs[0] = T(v)
			xs, at = xs[1:], at+k
		}
		r.r.Discard(at)
		switch {
		case len(xs) == 0 || at > 0:
			// Done, or the window ended inside a varint: take the next.
		case k < 0 || len(b) >= binary.MaxVarintLen64:
			// Too long, or ten bytes that all say more follows.
			r.fail(fmt.Errorf("wire: varint: %w", errOverflow))
		default:
			// Not one whole varint in as much input as there is.
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
				if len(b) == 0 {
					err = io.EOF
				}
			}
			r.fail(fmt.Errorf("wire: varint: %w", err))
		}
	}
}

// errOverflow is what binary.ReadVarint reports for the same input.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

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
	for rest := xs; len(rest) > 0; {
		b := r.next(8 * len(rest))
		if b == nil {
			return nil
		}
		k := len(b) / 8
		for i := range rest[:k] {
			rest[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		rest = rest[k:]
	}
	return xs
}

// Strings reads a length-prefixed []string. The strings are views of one
// arena, so a section of many short keys costs two allocations, not one
// per key.
func (r *Reader) Strings() []string {
	n := r.lenPrefix()
	if r.err != nil {
		return nil
	}
	xs := make([]string, n)
	if cap(r.ends) < n {
		r.ends = make([]int, n)
	}
	ends := r.ends[:n]
	var arena strings.Builder
	for i := range xs {
		size := r.lenPrefix()
		if i == 0 {
			// The keys of a section usually share one length.
			arena.Grow(min(n*size, int(r.max)))
		}
		for size > 0 && r.err == nil {
			b := r.take(min(size, r.r.Size()))
			arena.Write(b)
			size -= len(b)
		}
		if r.err != nil {
			return nil
		}
		ends[i] = arena.Len()
	}
	all, lo := arena.String(), 0
	for i, end := range ends {
		xs[i], lo = all[lo:end], end
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
