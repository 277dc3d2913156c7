package lshfunc

// Binary (Hamming) LSH. Two pieces:
//
//   - Sketcher: hyperplane-sign binarization of float inputs. Each of the
//     Bits output bits is sign(a_i·v) for an i.i.d. Gaussian hyperplane
//     a_i (Charikar's SimHash family), so existing fvecs datasets sketch
//     into packed Hamming space. The signed projection a_i·v is also the
//     bit's *margin*: its magnitude says how close v sits to hyperplane i,
//     which is what the query-directed multiprobe path flips on (the
//     Dynamic Query Modification idea — flip the least-confident bits
//     first).
//
//   - BitSampler: the classical bit-sampling LSH family over the packed
//     sketch. Table t's key is M bits drawn without replacement from the
//     Bits sketch positions, packed into (M+7)/8 key bytes. Bit sampling
//     is provably locality sensitive for Hamming distance, and the packed
//     byte keys feed the existing string-keyed lshtable unchanged.
//
// Both are drawn from a splittable RNG so a serialized index replays
// bit-identically, matching the float Family's determinism contract.

import (
	"fmt"

	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// Sketcher binarizes d-dimensional float vectors into packed bits-bit
// sketches by hyperplane signs.
type Sketcher struct {
	d      int
	bits   int
	planes *vec.Matrix // bits × d Gaussian hyperplane normals
}

// NewSketcher draws bits Gaussian hyperplanes over dimension d.
func NewSketcher(d, bitCount int, rng *xrand.RNG) (*Sketcher, error) {
	if d <= 0 {
		return nil, fmt.Errorf("lshfunc: sketcher d = %d, must be positive", d)
	}
	if bitCount <= 0 {
		return nil, fmt.Errorf("lshfunc: sketcher bits = %d, must be positive", bitCount)
	}
	p := vec.NewMatrix(bitCount, d)
	for i := 0; i < bitCount; i++ {
		copy(p.Row(i), rng.GaussianVec(d))
	}
	return &Sketcher{d: d, bits: bitCount, planes: p}, nil
}

// D returns the input dimensionality.
func (s *Sketcher) D() int { return s.d }

// Bits returns the sketch width in bits.
func (s *Sketcher) Bits() int { return s.bits }

// Words returns the packed sketch width in uint64 words.
func (s *Sketcher) Words() int { return (s.bits + 63) / 64 }

// Sketch writes the packed sketch of v into out (len out == Words()).
// Bit i is 1 iff a_i·v >= 0; ties on the hyperplane go to 1 so the map is
// total and deterministic.
func (s *Sketcher) Sketch(v []float32, out []uint64) {
	s.SketchWithMargins(v, out, nil)
}

// SketchWithMargins is Sketch plus, when marg is non-nil (len == Bits()),
// the raw signed projections a_i·v — the per-bit confidence the multiprobe
// path orders its flips by.
func (s *Sketcher) SketchWithMargins(v []float32, out []uint64, marg []float64) {
	if len(v) != s.d {
		panic(fmt.Sprintf("lshfunc: Sketch got dim %d, want %d", len(v), s.d))
	}
	if len(out) != s.Words() {
		panic(fmt.Sprintf("lshfunc: Sketch out len %d, want %d", len(out), s.Words()))
	}
	if marg != nil && len(marg) != s.bits {
		panic(fmt.Sprintf("lshfunc: Sketch margins len %d, want %d", len(marg), s.bits))
	}
	if marg == nil {
		marg = make([]float64, s.bits)
	}
	vec.DotRows(marg, s.planes.Data, s.d, v)
	packSigns(out, marg)
}

// packSigns sets out to the packed signs of marg: bit i is 1 iff
// marg[i] >= 0.
func packSigns(out []uint64, marg []float64) {
	clear(out)
	for i, p := range marg {
		if p >= 0 {
			out[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// SketchAll sketches every row of m into a fresh packed binary matrix:
// row i's sketch is Sketch's.
func (s *Sketcher) SketchAll(m *vec.Matrix) *vec.BinaryMatrix {
	if m.D != s.d {
		panic(fmt.Sprintf("lshfunc: SketchAll got dim %d, want %d", m.D, s.d))
	}
	bm := vec.NewBinaryMatrix(m.N, s.bits)
	marg := make([]float64, s.bits)
	for i := 0; i < m.N; i++ {
		s.SketchWithMargins(m.Row(i), bm.Row(i), marg)
	}
	return bm
}

// BitSampler is the bit-sampling LSH family: L tables, each keyed by M
// sketch bit positions sampled without replacement.
type BitSampler struct {
	bits int
	m    int
	l    int
	pos  [][]int // per table: M sampled positions in [0,bits)
}

// NewBitSampler draws L tables of M positions each from a bits-wide sketch.
func NewBitSampler(bitCount, m, l int, rng *xrand.RNG) (*BitSampler, error) {
	switch {
	case bitCount <= 0:
		return nil, fmt.Errorf("lshfunc: sampler bits = %d, must be positive", bitCount)
	case m <= 0:
		return nil, fmt.Errorf("lshfunc: sampler M = %d, must be positive", m)
	case l <= 0:
		return nil, fmt.Errorf("lshfunc: sampler L = %d, must be positive", l)
	case m > bitCount:
		return nil, fmt.Errorf("lshfunc: sampler M = %d exceeds sketch width %d bits", m, bitCount)
	}
	bs := &BitSampler{bits: bitCount, m: m, l: l, pos: make([][]int, l)}
	for t := 0; t < l; t++ {
		bs.pos[t] = rng.Split(int64(t)).Sample(bitCount, m)
	}
	return bs, nil
}

// Bits returns the sketch width the sampler indexes into.
func (bs *BitSampler) Bits() int { return bs.bits }

// M returns the per-table key length in bits.
func (bs *BitSampler) M() int { return bs.m }

// L returns the number of tables.
func (bs *BitSampler) L() int { return bs.l }

// KeyLen returns the packed key length in bytes.
func (bs *BitSampler) KeyLen() int { return (bs.m + 7) / 8 }

// Positions returns table t's sampled sketch positions (shared storage;
// callers must not mutate). Key bit j of table t is sketch bit
// Positions(t)[j], so a probe that flips key bit j is un-confident exactly
// in sketch position Positions(t)[j].
func (bs *BitSampler) Positions(t int) []int {
	if t < 0 || t >= bs.l {
		panic(fmt.Sprintf("lshfunc: Positions table %d of %d", t, bs.l))
	}
	return bs.pos[t]
}

// AppendKey appends table t's packed key for the given sketch to dst and
// returns the extended slice. Key bit j mirrors sketch bit pos[t][j];
// unused high bits of the last key byte are zero.
func (bs *BitSampler) AppendKey(dst []byte, t int, sketch []uint64) []byte {
	if t < 0 || t >= bs.l {
		panic(fmt.Sprintf("lshfunc: AppendKey table %d of %d", t, bs.l))
	}
	if len(sketch)*64 < bs.bits {
		panic(fmt.Sprintf("lshfunc: AppendKey sketch %d words too short for %d bits", len(sketch), bs.bits))
	}
	base := len(dst)
	for i := 0; i < bs.KeyLen(); i++ {
		dst = append(dst, 0)
	}
	for j, p := range bs.pos[t] {
		if sketch[p>>6]&(1<<(uint(p)&63)) != 0 {
			dst[base+(j>>3)] |= 1 << (uint(j) & 7)
		}
	}
	return dst
}
