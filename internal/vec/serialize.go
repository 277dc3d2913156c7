package vec

import (
	"fmt"

	"bilsh/internal/wire"
)

const matrixMagic = "vec.Matrix/1"

// Encode writes the matrix to w.
func (m *Matrix) Encode(w *wire.Writer) { m.EncodeRows(w, nil) }

// EncodeRows writes the bytes Encode writes for the matrix whose i-th row
// is m's row order[i] (order nil: m itself). An index that stores its rows
// in another order than their ids writes them in id order this way,
// without a reordered copy.
func (m *Matrix) EncodeRows(w *wire.Writer, order []int32) {
	w.Magic(matrixMagic)
	w.Int(m.N)
	w.Int(m.D)
	// Rows are written as one block (not length-prefixed per row) since
	// the shape fully determines the payload size.
	if order == nil {
		w.F32Block(m.Data)
		return
	}
	for _, r := range order {
		w.F32Block(m.Row(int(r)))
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
	r.F32Block(m.Data)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

const binaryMagic = "vec.BinaryMatrix/1"

// Encode writes the packed binary matrix to w: shape, then the word array
// as one fixed-width payload (see wire.Writer.Words for why not varint).
func (m *BinaryMatrix) Encode(w *wire.Writer) { m.EncodeRows(w, nil) }

// EncodeRows writes the bytes Encode writes for the matrix whose i-th row
// is m's row order[i] (order nil: m itself), as Matrix.EncodeRows does.
func (m *BinaryMatrix) EncodeRows(w *wire.Writer, order []int32) {
	w.Magic(binaryMagic)
	w.Int(m.N)
	w.Int(m.Bits)
	if order == nil {
		w.Words(m.Words)
		return
	}
	w.U64(uint64(len(m.Words)))
	for _, r := range order {
		w.WordBlock(m.Row(int(r)))
	}
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
func (qm *QuantizedMatrix) Encode(w *wire.Writer) { qm.EncodeRows(w, nil) }

// EncodeRows writes the bytes Encode writes for the matrix whose i-th code
// row is qm's row order[i] (order nil: qm itself), as Matrix.EncodeRows
// does.
func (qm *QuantizedMatrix) EncodeRows(w *wire.Writer, order []int32) {
	w.Magic(quantMagic)
	w.Int(qm.N)
	w.Int(qm.D)
	w.F32s(qm.Min)
	w.F32s(qm.Scale)
	if order == nil {
		w.Bytes(qm.Codes)
		return
	}
	w.U64(uint64(len(qm.Codes)))
	for _, r := range order {
		w.ByteBlock(qm.Codes[int(r)*qm.D : (int(r)+1)*qm.D])
	}
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
