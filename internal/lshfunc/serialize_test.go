package lshfunc

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"bilsh/internal/vec"
	"bilsh/internal/wire"
	"bilsh/internal/xrand"
)

// encodeFamilyV1 writes the lshfunc.Family/1 section of the family
// NewFamily(d, p, rng) draws, as the float32 encoder wrote it: per table
// the M×D float32 directions as drawn, unrounded, then the M offsets.
func encodeFamilyV1(w *wire.Writer, d int, p Params, rng *xrand.RNG) {
	w.Magic("lshfunc.Family/1")
	w.Int(d)
	w.Int(p.M)
	w.Int(p.L)
	w.F64(p.W)
	for t := 0; t < p.L; t++ {
		g := rng.Split(int64(t))
		a := vec.NewMatrix(p.M, d)
		for i := 0; i < p.M; i++ {
			copy(a.Row(i), g.GaussianVec(d))
		}
		a.Encode(w)
		b := make([]float64, p.M)
		for i := range b {
			b[i] = g.Float64()
		}
		w.F64s(b)
	}
}

func encodeFamily(t testing.TB, f *Family) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	f.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFamilyRoundTrip(t *testing.T) {
	orig, err := NewFamily(12, Params{M: 6, L: 4, W: 2.5}, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := orig.SetW(3.75); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	orig.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, rounded, err := DecodeFamily(wire.NewReader(&buf), false)
	if err != nil || rounded {
		t.Fatal(rounded, err)
	}
	if got.D() != 12 || got.M() != 6 || got.L() != 4 || got.W() != 3.75 {
		t.Fatalf("metadata: d=%d m=%d l=%d w=%v", got.D(), got.M(), got.L(), got.W())
	}
	v := xrand.New(2).GaussianVec(12)
	for tab := 0; tab < 4; tab++ {
		a := orig.Projected(tab, v)
		b := got.Projected(tab, v)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("table %d projection differs after round trip", tab)
			}
		}
	}
}

func TestDecodeFamilyRejectsCorruptShape(t *testing.T) {
	for _, magic := range []string{"lshfunc.Family/1", "lshfunc.Family/2"} {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		w.Magic(magic)
		w.Int(0) // d = 0: invalid
		w.Int(4)
		w.Int(2)
		w.F64(1)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeFamily(wire.NewReader(&buf), true); err == nil {
			t.Fatalf("%s: d=0 must be rejected", magic)
		}
	}
}

func TestDecodeFamilyRejectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Magic("something.else/9")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFamily(wire.NewReader(&buf), true); err == nil {
		t.Fatal("wrong magic must be rejected")
	}
}

func TestDecodeFamilyRejectsShapeMismatch(t *testing.T) {
	// Family claiming M=6 but carrying a 4-row direction matrix.
	orig, err := NewFamily(8, Params{M: 4, L: 1, W: 1}, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Magic("lshfunc.Family/1")
	w.Int(8)
	w.Int(6) // lie about M
	w.Int(1)
	w.F64(1)
	a := vec.NewMatrix(4, 8)
	for i, h := range orig.a {
		a.Data[i] = vec.HalfToFloat32(h)
	}
	a.Encode(w)
	w.F64s(orig.bFrac)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFamily(wire.NewReader(&buf), true); err == nil {
		t.Fatal("direction shape mismatch must be rejected")
	}
	// The same lie in a Family/2 section leaves the block short of its
	// shape, and a wrong offset count is refused too.
	img := encodeFamily(t, orig)
	lie := bytes.Replace(img, []byte{16, 8, 2}, []byte{16, 12, 2}, 1) // zigzag d=8, M=4→6, L=1
	if bytes.Equal(lie, img) {
		t.Fatal("test fixture: shape bytes not found")
	}
	if _, _, err := DecodeFamily(wire.NewReader(bytes.NewReader(lie)), false); err == nil {
		t.Fatal("Family/2 direction block short of its shape must be rejected")
	}
}

// TestDecodeFamilyLegacy: a lshfunc.Family/1 section is refused with
// ErrLegacyFamily unless legacy is set, and read with it as exactly the
// family NewFamily draws now, its float32 directions rounded.
func TestDecodeFamilyLegacy(t *testing.T) {
	for _, c := range []struct {
		d int
		p Params
	}{{12, Params{M: 6, L: 4, W: 2.5}}, {960, Params{M: 16, L: 3, W: 1}}, {1, Params{M: 1, L: 1, W: 0.5}}} {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		encodeFamilyV1(w, c.d, c.p, xrand.New(5))
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeFamily(wire.NewReader(bytes.NewReader(buf.Bytes())), false); !errors.Is(err, ErrLegacyFamily) {
			t.Fatalf("d=%d %+v: Family/1 without legacy: %v, want ErrLegacyFamily", c.d, c.p, err)
		}
		got, rounded, err := DecodeFamily(wire.NewReader(bytes.NewReader(buf.Bytes())), true)
		if err != nil || !rounded {
			t.Fatalf("d=%d %+v: Family/1 with legacy: rounded=%v, %v", c.d, c.p, rounded, err)
		}
		want, err := NewFamily(c.d, c.p, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeFamily(t, got), encodeFamily(t, want)) {
			t.Fatalf("d=%d %+v: legacy family differs from NewFamily's", c.d, c.p)
		}
	}
}

// FuzzDecodeFamily feeds DecodeFamily arbitrary bytes, seeded with valid
// Family/2 sections and hostile ones: shapes whose direction block
// overflows or exceeds the input, counts past the table limit, negative
// and non-finite widths, a short offset list and truncations. Whatever
// it accepts must fit the input it came from, re-encode to the bytes it
// was read from, and project without panicking.
func FuzzDecodeFamily(f *testing.F) {
	fam, err := NewFamily(5, Params{M: 3, L: 2, W: 1.5}, xrand.New(8))
	if err != nil {
		f.Fatal(err)
	}
	valid := encodeFamily(f, fam)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(valid)/2])
	header := func(d, m, l int64, width float64) []byte {
		var buf bytes.Buffer
		w := wire.NewWriter(&buf)
		w.Magic("lshfunc.Family/2")
		w.I64(d)
		w.I64(m)
		w.I64(l)
		w.F64(width)
		w.U16Block(make([]uint16, 16))
		w.F64s([]float64{0.5, 0.25})
		if err := w.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(header(1<<40, 1<<40, 1<<20, 1)) // d·M·L overflows
	f.Add(header(1<<20, 1<<10, 1, 1))     // far past the input
	f.Add(header(4, 2, 1<<21, 1))         // more tables than any index
	f.Add(header(-4, 2, 2, 1))
	f.Add(header(4, 2, 2, -1))
	f.Add(header(4, 2, 2, math.Inf(1)))
	f.Add(header(4, 2, 2, math.NaN()))
	f.Add(header(4, 2, 2, 1)) // 16 directions, 2 offsets where 4 are due
	f.Add(header(4, 2, 1, 1)) // 8 directions due: the block runs into the offsets
	f.Add(header(8, 1, 2, 1)) // 16 directions, 2 offsets: well formed
	f.Fuzz(func(t *testing.T, raw []byte) {
		r := wire.NewReader(bytes.NewReader(raw))
		got, rounded, err := DecodeFamily(r, false)
		if err != nil {
			return
		}
		if rounded {
			t.Fatal("a Family/2 decode reported rounding")
		}
		if 2*got.D()*got.M()*got.L() > len(raw) {
			t.Fatalf("accepted a %d×%d×%d family from %d bytes", got.D(), got.M(), got.L(), len(raw))
		}
		if img := encodeFamily(t, got); !bytes.HasPrefix(raw, img) {
			t.Fatal("accepted family re-encodes to different bytes")
		}
		v := make([]float32, got.D())
		for i := range v {
			v[i] = float32(i%3) - 1
		}
		for tab := 0; tab < got.L(); tab++ {
			got.Projected(tab, v)
		}
	})
}
