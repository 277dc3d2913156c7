package vec

import (
	"fmt"

	"bilsh/internal/wire"
)

const matrixMagic = "vec.Matrix/1"

// Encode writes the matrix to w.
func (m *Matrix) Encode(w *wire.Writer) {
	w.Magic(matrixMagic)
	w.Int(m.N)
	w.Int(m.D)
	// Rows are written directly (not length-prefixed per row) since the
	// shape fully determines the payload size.
	for _, v := range m.Data {
		w.F32(v)
	}
}

// DecodeMatrix reads a matrix written by Encode.
func DecodeMatrix(r *wire.Reader) (*Matrix, error) {
	r.ExpectMagic(matrixMagic)
	n := r.Int()
	d := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if lim := r.Limit() / 4; n < 0 || d <= 0 || n > lim || d > lim || n*d > lim {
		return nil, fmt.Errorf("vec: decoded matrix shape %dx%d implausible", n, d)
	}
	m := NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = r.F32()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

const binaryMagic = "vec.BinaryMatrix/1"

// Encode writes the packed binary matrix to w: shape, then the word array
// as one fixed-width payload (see wire.Writer.Words for why not varint).
func (m *BinaryMatrix) Encode(w *wire.Writer) {
	w.Magic(binaryMagic)
	w.Int(m.N)
	w.Int(m.Bits)
	w.Words(m.Words)
}

// DecodeBinaryMatrix reads a packed binary matrix written by Encode.
func DecodeBinaryMatrix(r *wire.Reader) (*BinaryMatrix, error) {
	r.ExpectMagic(binaryMagic)
	n := r.Int()
	bitCount := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 0 || bitCount <= 0 || bitCount > wire.MaxLen ||
		n > wire.MaxLen/8/wordsFor(bitCount) {
		return nil, fmt.Errorf("vec: decoded binary matrix shape %dx%d implausible", n, bitCount)
	}
	words := r.Words()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(words) != n*wordsFor(bitCount) {
		return nil, fmt.Errorf("vec: decoded binary matrix words %d inconsistent with shape %dx%d",
			len(words), n, bitCount)
	}
	return &BinaryMatrix{Words: words, N: n, Bits: bitCount}, nil
}

const quantMagic = "vec.QuantMatrix/1"

// Encode writes the SQ8 matrix to w: shape, per-dimension min/scale, then
// the code rows as one raw byte payload.
func (qm *QuantizedMatrix) Encode(w *wire.Writer) {
	w.Magic(quantMagic)
	w.Int(qm.N)
	w.Int(qm.D)
	w.F32s(qm.Min)
	w.F32s(qm.Scale)
	w.Bytes(qm.Codes)
}

// DecodeQuantizedMatrix reads an SQ8 matrix written by Encode.
func DecodeQuantizedMatrix(r *wire.Reader) (*QuantizedMatrix, error) {
	r.ExpectMagic(quantMagic)
	n := r.Int()
	d := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n < 0 || d <= 0 || n > wire.MaxLen || d > wire.MaxLen || n > wire.MaxLen/d {
		return nil, fmt.Errorf("vec: decoded quantized matrix shape %dx%d implausible", n, d)
	}
	qm := &QuantizedMatrix{
		N:     n,
		D:     d,
		Min:   r.F32s(),
		Scale: r.F32s(),
		Codes: r.Bytes(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(qm.Min) != d || len(qm.Scale) != d || len(qm.Codes) != n*d {
		return nil, fmt.Errorf("vec: decoded quantized matrix sections inconsistent with shape %dx%d", n, d)
	}
	return qm, nil
}
