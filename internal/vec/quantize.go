package vec

import (
	"fmt"
	"math"

	"bilsh/internal/chunk"
)

// QuantizedMatrix is an SQ8 scalar-quantized row store: each dimension j
// is affinely mapped from [Min[j], Min[j]+255*Scale[j]] onto the byte
// codes 0..255, so a row costs D bytes resident instead of 4*D — the ~4×
// footprint/bandwidth reduction that makes the quantized shortlist scan
// cheap. Distances against it are asymmetric: the query stays float32 and
// each stored code is dequantized on the fly as
//
//	v = Min[j] + float32(Scale[j] * float32(code))
//
// (float32 arithmetic, matching the SIMD dequantization lane for lane).
// The per-dimension absolute reconstruction error is at most Scale[j]/2
// plus float32 rounding — see the bound test in quantize_test.go — which
// is why the scan's shortlist must be re-ranked with exact float32 rows
// before results leave the index (internal/core does this).
type QuantizedMatrix struct {
	Codes []uint8 // row-major, row i at Codes[i*D : (i+1)*D]
	N, D  int
	Min   []float32 // per-dimension minimum, len D
	Scale []float32 // per-dimension (max-min)/255, len D; 0 for constant dims
}

// QuantizeSQ8 builds the SQ8 representation of m on every core: the
// per-dimension minimum and maximum over chunks of rows (package chunk),
// then the codes of each chunk's rows. The result is QuantizeSQ8Rows's
// over m.Row, byte for byte, at any chunk count: each chunk keeps the
// same strict </> running minimum and maximum, and the chunks are
// combined in row order with the same tests, so the first occurrence of
// an extreme still wins (which is what decides between −0 and +0). Chunk
// 0 starts from row 0, as the sequential pass does; the later chunks start
// from +Inf and −Inf, so that a NaN is passed over there as it is in the
// sequential pass.
func QuantizeSQ8(m *Matrix) *QuantizedMatrix { return QuantizeSQ8Order(m, nil) }

// QuantizeSQ8Order is QuantizeSQ8 with the minimum and maximum taken over
// m's rows in the order order lists (order nil: row order), so that their
// first occurrences are those of that order, while each row is encoded in
// place. An index whose rows are stored in another order than their ids
// quantizes them as it would in id order this way.
func QuantizeSQ8Order(m *Matrix, order []int32) *QuantizedMatrix {
	n, d := m.N, m.D
	qm := newSQ8(n, d, "QuantizeSQ8")
	if n == 0 {
		return qm
	}
	at := func(i int) []float32 {
		if order != nil {
			i = int(order[i])
		}
		return m.Row(i)
	}
	k := chunk.Count(n)
	mins := make([]float32, k*d)
	maxs := make([]float32, k*d)
	chunk.Run(n, k, func(c, lo, hi int) {
		mn, mx := mins[c*d:(c+1)*d], maxs[c*d:(c+1)*d]
		if c == 0 {
			copy(mn, at(0))
			copy(mx, mn)
			lo = 1
		} else {
			for j := range mn {
				mn[j], mx[j] = float32(math.Inf(1)), float32(math.Inf(-1))
			}
		}
		for i := lo; i < hi; i++ {
			extend(mn, mx, at(i))
		}
	})
	max := maxs[:d]
	copy(qm.Min, mins[:d])
	for c := 1; c < k; c++ {
		for j := 0; j < d; j++ {
			if v := mins[c*d+j]; v < qm.Min[j] {
				qm.Min[j] = v
			}
			if v := maxs[c*d+j]; v > max[j] {
				max[j] = v
			}
		}
	}
	qm.setScale(max)
	chunk.Run(n, k, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			qm.encode(i, m.Row(i))
		}
	})
	return qm
}

// QuantizeSQ8Rows builds an SQ8 matrix from a row accessor, so callers can
// quantize without materializing a float32 Matrix (the disk-backed index
// streams rows through this). row is called in two ascending passes —
// min/max first, then encoding — and the returned slice is only read
// before the next call, so an accessor may reuse one buffer.
func QuantizeSQ8Rows(n, d int, row func(i int) []float32) *QuantizedMatrix {
	qm := newSQ8(n, d, "QuantizeSQ8Rows")
	if n == 0 {
		return qm
	}
	max := make([]float32, d)
	copy(qm.Min, row(0)[:d])
	copy(max, qm.Min)
	for i := 1; i < n; i++ {
		extend(qm.Min, max, row(i)[:d])
	}
	qm.setScale(max)
	for i := 0; i < n; i++ {
		qm.encode(i, row(i)[:d])
	}
	return qm
}

// newSQ8 allocates an n×d SQ8 matrix, panicking in fn's name on a shape
// that is invalid or overflows int.
func newSQ8(n, d int, fn string) *QuantizedMatrix {
	if n < 0 || d <= 0 {
		panic(fmt.Sprintf("vec: %s invalid shape %dx%d", fn, n, d))
	}
	if n > math.MaxInt/d {
		panic(fmt.Sprintf("vec: %s shape %dx%d overflows int", fn, n, d))
	}
	return &QuantizedMatrix{
		Codes: make([]uint8, n*d),
		N:     n,
		D:     d,
		Min:   make([]float32, d),
		Scale: make([]float32, d),
	}
}

// extend lowers min and raises max to cover r, by strict comparisons: a
// value equal to the current extreme (−0 against +0 included) leaves it.
func extend(min, max, r []float32) {
	for j, v := range r {
		if v < min[j] {
			min[j] = v
		}
		if v > max[j] {
			max[j] = v
		}
	}
}

// setScale sets each dimension's scale from its range [Min, max].
func (qm *QuantizedMatrix) setScale(max []float32) {
	for j := range qm.Scale {
		qm.Scale[j] = (max[j] - qm.Min[j]) / 255
	}
}

// encode writes row i's codes from its values r.
func (qm *QuantizedMatrix) encode(i int, r []float32) {
	c := qm.Codes[i*qm.D : (i+1)*qm.D]
	for j, v := range r {
		c[j] = quantizeCode(v, qm.Min[j], qm.Scale[j])
	}
}

// quantizeCode maps v to its byte code. The division runs in float64 so
// encoding is deterministic across architectures; rounding is
// round-half-away-from-zero via math.Round, and the clamp absorbs the
// float rounding that can push v=max a hair past 255.
func quantizeCode(v, min, scale float32) uint8 {
	if scale == 0 {
		return 0
	}
	t := math.Round((float64(v) - float64(min)) / float64(scale))
	if t <= 0 {
		return 0
	}
	if t >= 255 {
		return 255
	}
	return uint8(t)
}

// Row returns the i-th code row sharing the matrix storage.
func (qm *QuantizedMatrix) Row(i int) []uint8 { return qm.Codes[i*qm.D : (i+1)*qm.D] }

// ReconstructInto dequantizes row i into dst (which must have capacity D)
// and returns dst[:D]. The arithmetic matches the scan kernels exactly.
func (qm *QuantizedMatrix) ReconstructInto(dst []float32, i int) []float32 {
	dst = dst[:qm.D]
	c := qm.Row(i)
	for j := range dst {
		dst[j] = qm.Min[j] + float32(qm.Scale[j]*float32(c[j]))
	}
	return dst
}

// ResidentBytes reports the memory the quantized store keeps resident,
// for comparison against the 4*N*D bytes of the float32 matrix.
func (qm *QuantizedMatrix) ResidentBytes() int {
	return len(qm.Codes) + 4*len(qm.Min) + 4*len(qm.Scale)
}

// SqDistToRowsSQ8 computes the asymmetric squared distance from float32
// query q to each listed SQ8 row, writing results into out. Validation
// mirrors SqDistToRows: everything is checked here once, and the kernels
// run check-free.
func SqDistToRowsSQ8(out []float64, qm *QuantizedMatrix, ids []int32, q []float32) {
	if len(out) != len(ids) {
		panic(fmt.Sprintf("vec: SqDistToRowsSQ8 out len %d, want %d", len(out), len(ids)))
	}
	if len(q) != qm.D {
		panic(fmt.Sprintf("vec: SqDistToRowsSQ8 query dim %d, want %d", len(q), qm.D))
	}
	if len(qm.Min) != qm.D || len(qm.Scale) != qm.D {
		panic(fmt.Sprintf("vec: SqDistToRowsSQ8 min/scale len %d/%d, want %d", len(qm.Min), len(qm.Scale), qm.D))
	}
	maxRow := int32(len(qm.Codes) / qm.D)
	for _, id := range ids {
		if id < 0 || id >= maxRow {
			panic(fmt.Sprintf("vec: SqDistToRowsSQ8 row %d outside matrix of %d rows", id, maxRow))
		}
	}
	active.sqDistSQ8Rows(out, qm.Codes, qm.D, qm.Min, qm.Scale, ids, q)
}

// sqDistSQ8Generic is the portable asymmetric SQ8 kernel: dequantize in
// float32, then the same 4-lane float64 squared-difference accumulation as
// sqDistGeneric (with the same FMA-suppressing conversions).
func sqDistSQ8Generic(c []uint8, q, min, scale []float32) float64 {
	q = q[:len(c)]
	min = min[:len(c)]
	scale = scale[:len(c)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(c); i += 4 {
		v0 := min[i] + float32(scale[i]*float32(c[i]))
		v1 := min[i+1] + float32(scale[i+1]*float32(c[i+1]))
		v2 := min[i+2] + float32(scale[i+2]*float32(c[i+2]))
		v3 := min[i+3] + float32(scale[i+3]*float32(c[i+3]))
		d0 := float64(v0) - float64(q[i])
		d1 := float64(v1) - float64(q[i+1])
		d2 := float64(v2) - float64(q[i+2])
		d3 := float64(v3) - float64(q[i+3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; i < len(c); i++ {
		v := min[i] + float32(scale[i]*float32(c[i]))
		d := float64(v) - float64(q[i])
		s0 += float64(d * d)
	}
	return (s0 + s1) + (s2 + s3)
}

func sqDistSQ8RowsGeneric(out []float64, codes []uint8, d int, min, scale []float32, ids []int32, q []float32) {
	for i, id := range ids {
		off := int(id) * d
		out[i] = sqDistSQ8Generic(codes[off:off+d:off+d], q, min, scale)
	}
}
