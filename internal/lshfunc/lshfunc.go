// Package lshfunc implements the p-stable (Gaussian, l2) locality
// sensitive hash functions of Datar et al. used by the paper (Eq. 2):
//
//	h_i(v) = ⌊(a_i·v + b_i) / W⌋
//
// A Family holds the functions for L independent tables of M functions
// each. The family produces *unquantized* projected values
// (a_i·v + b_i)/W; quantization (floor for Z^M, DECODE for E8) is the
// lattice's job, which is what lets the same projections feed both
// quantizers, exactly as the paper compares them.
//
// The offsets b_i are stored as fractions of W so the bucket width can be
// swept (the experiments' x-axis) without redrawing the projections —
// matching the paper's protocol where W grows gradually for fixed random
// directions within one run.
//
// The directions a_i are stored as IEEE binary16: each component is the
// Gaussian draw rounded to 11 significant bits (2⁻¹¹ relative), which
// halves the bytes every projection streams, and a projection accumulates
// in float32 lanes (vec.DotRowsF16).
package lshfunc

import (
	"fmt"

	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// Params are the LSH hyperparameters of the paper: code length M, table
// count L, bucket width W.
type Params struct {
	M int
	L int
	W float64
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.M <= 0:
		return fmt.Errorf("lshfunc: M = %d, must be positive", p.M)
	case p.L <= 0:
		return fmt.Errorf("lshfunc: L = %d, must be positive", p.L)
	case p.W <= 0:
		return fmt.Errorf("lshfunc: W = %g, must be positive", p.W)
	}
	return nil
}

// Family is a set of L×M p-stable hash functions over dimension D vectors.
type Family struct {
	d int
	m int
	l int
	w float64
	// a holds the L×M×D binary16 directions, table t's row-major M×D
	// matrix at a[t·M·D:].
	a []uint16
	// bFrac holds the L×M offsets as fractions of W, table t's at
	// bFrac[t·M:].
	bFrac []float64
}

// NewFamily draws a fresh family for d-dimensional data. Table t draws
// from rng.Split(t) its M float32 Gaussian directions, each component
// rounded to the nearest binary16 (vec.HalfsFromFloat32s), then its M
// offsets.
func NewFamily(d int, p Params, rng *xrand.RNG) (*Family, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d <= 0 {
		return nil, fmt.Errorf("lshfunc: d = %d, must be positive", d)
	}
	f := &Family{d: d, m: p.M, l: p.L, w: p.W,
		a: make([]uint16, p.L*p.M*d), bFrac: make([]float64, p.L*p.M)}
	for t := 0; t < p.L; t++ {
		g := rng.Split(int64(t))
		for i := 0; i < p.M; i++ {
			vec.HalfsFromFloat32s(f.dirs(t)[i*d:(i+1)*d], g.GaussianVec(d))
		}
		b := f.offsets(t)
		for i := range b {
			b[i] = g.Float64()
		}
	}
	return f, nil
}

// dirs returns table t's M×D direction matrix.
func (f *Family) dirs(t int) []uint16 {
	md := f.m * f.d
	return f.a[t*md : (t+1)*md : (t+1)*md]
}

// offsets returns table t's M offsets.
func (f *Family) offsets(t int) []float64 {
	return f.bFrac[t*f.m : (t+1)*f.m : (t+1)*f.m]
}

// D returns the data dimensionality.
func (f *Family) D() int { return f.d }

// M returns the per-table code length.
func (f *Family) M() int { return f.m }

// L returns the number of tables.
func (f *Family) L() int { return f.l }

// W returns the current bucket width.
func (f *Family) W() float64 { return f.w }

// SetW rescales the bucket width, keeping the projection directions fixed.
func (f *Family) SetW(w float64) error {
	if w <= 0 {
		return fmt.Errorf("lshfunc: SetW(%g): width must be positive", w)
	}
	f.w = w
	return nil
}

// Project writes the unquantized hash values of v under table t into out
// (len out == M): out[i] = (a_i·v + b_i)/W with b_i = bFrac_i·W, i.e.
// out[i] = (a_i·v)/W + bFrac_i.
func (f *Family) Project(t int, v []float32, out []float64) {
	if t < 0 || t >= f.l {
		panic(fmt.Sprintf("lshfunc: Project table %d of %d", t, f.l))
	}
	if len(v) != f.d {
		panic(fmt.Sprintf("lshfunc: Project got dim %d, want %d", len(v), f.d))
	}
	if len(out) != f.m {
		panic(fmt.Sprintf("lshfunc: Project out len %d, want %d", len(out), f.m))
	}
	// One kernel call over the table's contiguous M×D direction matrix
	// (vec.DotRowsF16 runs four rows at a time), then the affine pass.
	vec.DotRowsF16(out, f.dirs(t), f.d, v)
	for i, b := range f.offsets(t) {
		out[i] = out[i]/f.w + b
	}
}

// ProjectBlock is Project for a block of vectors: out[r*M+i] is out[i] of
// Project(t, vs[r], ·), bit for bit (len out == len(vs)*M). One
// vec.DotRowsManyF16 call projects the whole block onto the table's
// directions, so each direction row is widened once per block, not once
// per vector.
func (f *Family) ProjectBlock(t int, vs [][]float32, out []float64) {
	if t < 0 || t >= f.l {
		panic(fmt.Sprintf("lshfunc: ProjectBlock table %d of %d", t, f.l))
	}
	if len(out) != len(vs)*f.m {
		panic(fmt.Sprintf("lshfunc: ProjectBlock out len %d, want %d", len(out), len(vs)*f.m))
	}
	vec.DotRowsManyF16(out, f.dirs(t), f.d, vs)
	for r := range vs {
		o := out[r*f.m : (r+1)*f.m]
		for i, b := range f.offsets(t) {
			o[i] = o[i]/f.w + b
		}
	}
}

// Projected returns a fresh slice with the projection of v under table t.
func (f *Family) Projected(t int, v []float32) []float64 {
	out := make([]float64, f.m)
	f.Project(t, v, out)
	return out
}
