package lshfunc

import (
	"errors"
	"fmt"
	"math"

	"bilsh/internal/vec"
	"bilsh/internal/wire"
)

// Family sections: /2 stores the directions as binary16, /1 (written
// before) as float32 matrices, one per table.
const (
	familyMagic   = "lshfunc.Family/2"
	familyMagicV1 = "lshfunc.Family/1"
	sketcherMagic = "lshfunc.Sketcher/1"
	samplerMagic  = "lshfunc.BitSampler/1"
)

// ErrLegacyFamily tags a lshfunc.Family/1 section met by a decoder that
// does not admit it. errors.Is-able.
var ErrLegacyFamily = errors.New("lshfunc: legacy family section " + familyMagicV1)

// Encode writes the sketcher (hyperplane normals) to w.
func (s *Sketcher) Encode(w *wire.Writer) {
	w.Magic(sketcherMagic)
	w.Int(s.d)
	w.Int(s.bits)
	s.planes.Encode(w)
}

// DecodeSketcher reads a sketcher written by Encode.
func DecodeSketcher(r *wire.Reader) (*Sketcher, error) {
	r.ExpectMagic(sketcherMagic)
	s := &Sketcher{d: r.Int(), bits: r.Int()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if s.d <= 0 || s.bits <= 0 || s.bits > 1<<20 {
		return nil, fmt.Errorf("lshfunc: decoded sketcher shape d=%d bits=%d implausible", s.d, s.bits)
	}
	p, err := vec.DecodeMatrix(r)
	if err != nil {
		return nil, fmt.Errorf("lshfunc: sketcher planes: %w", err)
	}
	if p.N != s.bits || p.D != s.d {
		return nil, fmt.Errorf("lshfunc: sketcher planes shaped %dx%d, want %dx%d", p.N, p.D, s.bits, s.d)
	}
	s.planes = p
	return s, nil
}

// Encode writes the bit sampler (per-table positions) to w.
func (bs *BitSampler) Encode(w *wire.Writer) {
	w.Magic(samplerMagic)
	w.Int(bs.bits)
	w.Int(bs.m)
	w.Int(bs.l)
	for t := 0; t < bs.l; t++ {
		w.Ints(bs.pos[t])
	}
}

// DecodeBitSampler reads a bit sampler written by Encode.
func DecodeBitSampler(r *wire.Reader) (*BitSampler, error) {
	r.ExpectMagic(samplerMagic)
	bs := &BitSampler{bits: r.Int(), m: r.Int(), l: r.Int()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if bs.bits <= 0 || bs.m <= 0 || bs.l <= 0 || bs.m > bs.bits || bs.l > 1<<20 {
		return nil, fmt.Errorf("lshfunc: decoded sampler shape bits=%d m=%d l=%d implausible", bs.bits, bs.m, bs.l)
	}
	bs.pos = make([][]int, bs.l)
	for t := 0; t < bs.l; t++ {
		pt := r.Ints()
		if len(pt) != bs.m {
			return nil, fmt.Errorf("lshfunc: sampler table %d has %d positions, want %d", t, len(pt), bs.m)
		}
		for _, p := range pt {
			if p < 0 || p >= bs.bits {
				return nil, fmt.Errorf("lshfunc: sampler table %d position %d outside %d-bit sketch", t, p, bs.bits)
			}
		}
		bs.pos[t] = pt
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return bs, nil
}

// Encode writes the family to w as a lshfunc.Family/2 section: the shape
// and current width, the L×M×D binary16 directions as one fixed-width
// block, then the L×M offsets.
func (f *Family) Encode(w *wire.Writer) {
	w.Magic(familyMagic)
	w.Int(f.d)
	w.Int(f.m)
	w.Int(f.l)
	w.F64(f.w)
	w.U16Block(f.a)
	w.F64s(f.bFrac)
}

// DecodeFamily reads a family written by Encode. A lshfunc.Family/1
// section (float32 directions) is read only when legacy is set: its
// directions are rounded to binary16 as NewFamily rounds its draws, and
// rounded reports it, since anything hashed under the float32 directions
// must be hashed again. Without legacy it is refused with
// ErrLegacyFamily.
func DecodeFamily(r *wire.Reader, legacy bool) (f *Family, rounded bool, err error) {
	switch magic := r.String(); {
	case r.Err() != nil:
		return nil, false, r.Err()
	case magic == familyMagicV1 && legacy:
		f, err = decodeFamilyV1(r)
		return f, err == nil, err
	case magic == familyMagicV1:
		return nil, false, ErrLegacyFamily
	case magic != familyMagic:
		return nil, false, fmt.Errorf("lshfunc: expected section %q, found %q", familyMagic, magic)
	}
	f, err = decodeFamilyShape(r)
	if err != nil {
		return nil, false, err
	}
	if lim := r.Limit() / 2; f.d > lim || f.m > lim/f.d || f.l > lim/(f.m*f.d) {
		return nil, false, fmt.Errorf("lshfunc: decoded family shape d=%d m=%d l=%d exceeds the input", f.d, f.m, f.l)
	}
	f.a = make([]uint16, f.l*f.m*f.d)
	r.U16Block(f.a)
	f.bFrac = r.F64s()
	if err := r.Err(); err != nil {
		return nil, false, err
	}
	if len(f.bFrac) != f.l*f.m {
		return nil, false, fmt.Errorf("lshfunc: family has %d offsets, want %d", len(f.bFrac), f.l*f.m)
	}
	return f, false, nil
}

// decodeFamilyShape reads and checks the shape and width both family
// sections open with.
func decodeFamilyShape(r *wire.Reader) (*Family, error) {
	f := &Family{
		d: r.Int(),
		m: r.Int(),
		l: r.Int(),
		w: r.F64(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if f.d <= 0 || f.m <= 0 || f.l <= 0 || !(f.w > 0) || math.IsInf(f.w, 1) || f.l > 1<<20 {
		return nil, fmt.Errorf("lshfunc: decoded family shape d=%d m=%d l=%d w=%g implausible", f.d, f.m, f.l, f.w)
	}
	return f, nil
}

// decodeFamilyV1 reads the rest of a lshfunc.Family/1 section (its magic
// consumed): per table an M×D float32 matrix and M offsets. The
// directions are rounded to binary16.
func decodeFamilyV1(r *wire.Reader) (*Family, error) {
	f, err := decodeFamilyShape(r)
	if err != nil {
		return nil, err
	}
	for t := 0; t < f.l; t++ {
		a, err := vec.DecodeMatrix(r)
		if err != nil {
			return nil, fmt.Errorf("lshfunc: table %d directions: %w", t, err)
		}
		if a.N != f.m || a.D != f.d {
			return nil, fmt.Errorf("lshfunc: table %d directions shaped %dx%d, want %dx%d", t, a.N, a.D, f.m, f.d)
		}
		b := r.F64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if len(b) != f.m {
			return nil, fmt.Errorf("lshfunc: table %d has %d offsets, want %d", t, len(b), f.m)
		}
		// Grown table by table: every matrix appended was in the input.
		start := len(f.a)
		f.a = append(f.a, make([]uint16, len(a.Data))...)
		vec.HalfsFromFloat32s(f.a[start:], a.Data)
		f.bFrac = append(f.bFrac, b...)
	}
	return f, nil
}
