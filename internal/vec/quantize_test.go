package vec

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"bilsh/internal/wire"
)

// SQ8 round-trip error bound: quantizing to the per-dimension grid and
// dequantizing must land within half a grid step of the original value,
// plus float32 rounding in the dequantization arithmetic. This is the
// bound the exact re-rank in internal/core relies on being small.
func TestQuantizeSQ8ErrorBound(t *testing.T) {
	const n, d = 200, 33
	m := NewMatrix(n, d)
	copy(m.Data, fill(n*d, 4242))
	// Shift some dimensions so min/max are asymmetric, and pin one
	// dimension constant (scale = 0 must reconstruct exactly).
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += float32(j) * 0.25
		}
		row[7] = 3.5
	}
	qm := QuantizeSQ8(m)
	if qm.N != n || qm.D != d {
		t.Fatalf("shape %dx%d, want %dx%d", qm.N, qm.D, n, d)
	}
	buf := make([]float32, d)
	for i := 0; i < n; i++ {
		rec := qm.ReconstructInto(buf, i)
		row := m.Row(i)
		for j := range row {
			scale := float64(qm.Scale[j])
			// Half a grid step plus a few float32 ulps of the
			// reconstruction's magnitude.
			bound := 0.5*scale + 4*(1.0/(1<<24))*(math.Abs(float64(qm.Min[j]))+255*scale)
			if diff := math.Abs(float64(rec[j]) - float64(row[j])); diff > bound {
				t.Fatalf("row %d dim %d: |%v-%v|=%v exceeds bound %v (scale=%v)", i, j, rec[j], row[j], diff, bound, scale)
			}
		}
		if rec[7] != 3.5 {
			t.Fatalf("row %d: constant dimension reconstructed as %v, want exact 3.5", i, rec[7])
		}
	}
}

// The asymmetric scan must equal SqDist against the reconstructed rows
// bit-exactly — the kernels dequantize with the same float32 expression
// ReconstructInto uses.
func TestSQ8ScanMatchesReconstructedSqDist(t *testing.T) {
	for _, d := range []int{1, 3, 17, 64, 960} {
		const rows = 11
		m := NewMatrix(rows, d)
		copy(m.Data, fill(rows*d, 9+uint32(d)))
		qm := QuantizeSQ8(m)
		q := fill(d, 5+uint32(d))
		ids := []int32{10, 0, 3, 3, 7}
		out := make([]float64, len(ids))
		SqDistToRowsSQ8(out, qm, ids, q)
		buf := make([]float32, d)
		for i, id := range ids {
			want := SqDist(qm.ReconstructInto(buf, int(id)), q)
			if math.Float64bits(out[i]) != math.Float64bits(want) {
				t.Fatalf("d=%d row %d: scan=%v reconstruct+SqDist=%v (want bit-exact)", d, id, out[i], want)
			}
		}
	}
}

// Streaming quantization (row accessor, two passes) must produce exactly
// the same codes and parameters as quantizing a materialized matrix —
// this is what guarantees a disk-built SQ8 store equals an in-memory one.
func TestQuantizeSQ8RowsMatchesMatrix(t *testing.T) {
	const n, d = 57, 19
	m := NewMatrix(n, d)
	copy(m.Data, fill(n*d, 321))
	want := QuantizeSQ8(m)
	buf := make([]float32, d)
	got := QuantizeSQ8Rows(n, d, func(i int) []float32 {
		copy(buf, m.Row(i)) // reuse one buffer, as a disk reader would
		return buf
	})
	if !bytes.Equal(got.Codes, want.Codes) {
		t.Fatal("streaming quantization produced different codes")
	}
	for j := 0; j < d; j++ {
		if got.Min[j] != want.Min[j] || got.Scale[j] != want.Scale[j] {
			t.Fatalf("dim %d: min/scale %v/%v, want %v/%v", j, got.Min[j], got.Scale[j], want.Min[j], want.Scale[j])
		}
	}
}

func TestQuantizedMatrixSerializeRoundTrip(t *testing.T) {
	const n, d = 29, 13
	m := NewMatrix(n, d)
	copy(m.Data, fill(n*d, 777))
	qm := QuantizeSQ8(m)

	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	qm.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQuantizedMatrix(wire.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.N != n || got.D != d || !bytes.Equal(got.Codes, qm.Codes) {
		t.Fatal("decoded quantized matrix differs from original")
	}
	for j := 0; j < d; j++ {
		if got.Min[j] != qm.Min[j] || got.Scale[j] != qm.Scale[j] {
			t.Fatalf("dim %d min/scale drifted through serialization", j)
		}
	}

	// Corrupt shape: a truncated stream must error, not panic.
	raw := func() []byte {
		var b bytes.Buffer
		w := wire.NewWriter(&b)
		qm.Encode(w)
		w.Flush()
		return b.Bytes()
	}()
	if _, err := DecodeQuantizedMatrix(wire.NewReader(bytes.NewReader(raw[:len(raw)/2]))); err == nil {
		t.Fatal("truncated quantized matrix decoded without error")
	}
}

func TestQuantizeSQ8Empty(t *testing.T) {
	qm := QuantizeSQ8(NewMatrix(0, 8))
	if qm.N != 0 || qm.D != 8 || len(qm.Codes) != 0 {
		t.Fatalf("empty quantization got N=%d D=%d codes=%d", qm.N, qm.D, len(qm.Codes))
	}
	if qm.ResidentBytes() != 8*8 {
		t.Fatalf("ResidentBytes=%d, want %d (min+scale only)", qm.ResidentBytes(), 8*8)
	}
}

func TestQuantizeResidentBytes(t *testing.T) {
	const n, d = 100, 960
	m := NewMatrix(n, d)
	copy(m.Data, fill(n*d, 55))
	qm := QuantizeSQ8(m)
	floatBytes := 4 * n * d
	if got := qm.ResidentBytes(); got >= floatBytes/3 {
		t.Fatalf("ResidentBytes=%d, want well under a third of the %d float32 bytes", got, floatBytes)
	}
}

// TestQuantizeSQ8IndependentOfWorkerCount requires QuantizeSQ8, which
// takes the ranges and encodes on every core, to give the codes, minima
// and scales the sequential QuantizeSQ8Rows gives, at GOMAXPROCS 1, 2 and
// 8 (one, two and eight chunks of rows). The rows put the extremes where
// the order of the chunks decides: −0 and +0 tied at a dimension's
// minimum or maximum in different chunks, each sign first once, a NaN at
// row 0 and a NaN opening a later chunk, and a constant dimension.
func TestQuantizeSQ8IndependentOfWorkerCount(t *testing.T) {
	const n, d = 8*1024 + 29, 7
	m := NewMatrix(n, d)
	copy(m.Data, fill(n*d, 77))
	negZero := float32(math.Copysign(0, -1))
	for i := 0; i < n; i++ {
		row := m.Row(i)
		row[1] = float32(math.Abs(float64(row[1]))) + 1 // minimum 0 below
		row[2] = float32(math.Abs(float64(row[2]))) + 1
		row[3] = -float32(math.Abs(float64(row[3]))) - 1 // maximum 0 below
		row[6] = 2.5
	}
	m.Row(n - 3)[1], m.Row(100)[1] = negZero, 0 // +0 first
	m.Row(100)[2], m.Row(n - 3)[2] = negZero, 0 // −0 first
	m.Row(n / 2)[3], m.Row(9)[3] = negZero, 0
	m.Row(0)[4] = float32(math.NaN())
	m.Row(n / 2)[5] = float32(math.NaN())
	m.Row(n / 4)[5] = float32(math.NaN())

	want := QuantizeSQ8Rows(n, d, m.Row)
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := QuantizeSQ8(m)
		runtime.GOMAXPROCS(prev)
		if !bytes.Equal(got.Codes, want.Codes) {
			t.Fatalf("GOMAXPROCS %d: codes differ from QuantizeSQ8Rows'", procs)
		}
		for j := 0; j < d; j++ {
			if math.Float32bits(got.Min[j]) != math.Float32bits(want.Min[j]) ||
				math.Float32bits(got.Scale[j]) != math.Float32bits(want.Scale[j]) {
				t.Fatalf("GOMAXPROCS %d dim %d: min %v scale %v, QuantizeSQ8Rows %v %v",
					procs, j, got.Min[j], got.Scale[j], want.Min[j], want.Scale[j])
			}
		}
	}
	if math.Float32bits(want.Min[1]) != 0 || math.Float32bits(want.Min[2]) != math.Float32bits(negZero) {
		t.Fatalf("the first zero must win the minimum: %v, %v", want.Min[1], want.Min[2])
	}
}
