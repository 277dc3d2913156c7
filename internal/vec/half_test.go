package vec

import (
	"math"
	"sort"
	"testing"
)

// halfLadder is every finite non-negative binary16 value in ascending
// order as float64, plus 65536 standing for the encoding 0x7c00 (+Inf):
// under round-to-nearest-even, a magnitude rounds to Inf exactly when it
// would round to 2¹⁶ with an unbounded exponent.
func halfLadder() []float64 {
	var vals []float64
	for h := 0; h < 0x7c00; h++ {
		exp, mant := h>>10, h&0x3ff
		if exp == 0 {
			vals = append(vals, math.Ldexp(float64(mant), -24))
		} else {
			vals = append(vals, math.Ldexp(float64(0x400|mant), exp-25))
		}
	}
	return append(vals, 65536)
}

// refHalf rounds the finite float32 f to binary16 by search: the two
// ladder entries around |f|, the nearer one, on a tie the one with the even
// encoding. Every difference below is exact in float64 wherever the two
// candidates are close enough to tie.
func refHalf(ladder []float64, f float32) uint16 {
	sign := uint16(0)
	if math.Signbit(float64(f)) {
		sign = 0x8000
	}
	a := math.Abs(float64(f))
	i := sort.SearchFloat64s(ladder, a) // ladder[i] >= a
	if i < len(ladder) && ladder[i] == a {
		return sign | uint16(i)
	}
	if i == len(ladder) {
		return sign | 0x7c00
	}
	lo, hi := ladder[i-1], ladder[i]
	switch dl, dh := a-lo, hi-a; {
	case dl < dh:
		return sign | uint16(i-1)
	case dh < dl:
		return sign | uint16(i)
	case (i-1)%2 == 0:
		return sign | uint16(i-1)
	default:
		return sign | uint16(i)
	}
}

// halfProbeValues are the float32 inputs the converter is checked on:
// every binary16 value, its float32 neighbours, every midpoint between
// two consecutive halves (a tie) and its neighbours, each power of two
// across and beyond the binary16 range with its neighbours, the overflow
// threshold region, float32 subnormals and ±0, each in both signs.
func halfProbeValues() []float32 {
	var xs []float32
	add := func(f float32) {
		xs = append(xs, f, math.Nextafter32(f, float32(math.Inf(1))), math.Nextafter32(f, float32(math.Inf(-1))))
	}
	ladder := halfLadder()
	for i, v := range ladder {
		add(float32(v))
		if i > 0 {
			add(float32((v + ladder[i-1]) / 2))
		}
	}
	for e := -40; e <= 20; e++ {
		add(float32(math.Ldexp(1, e)))
	}
	for _, f := range []float32{0, 65504, 65519, 65520, 65521, 1e6, math.MaxFloat32,
		math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff)} {
		add(f)
	}
	n := len(xs)
	for _, f := range xs[:n] {
		xs = append(xs, -f)
	}
	return append(xs, float32(math.Copysign(0, -1)))
}

// TestHalfRoundTrip widens every binary16 encoding and rounds it back:
// every value other than a signalling NaN returns to its own encoding,
// and a signalling NaN returns quieted, as VCVTPS2PH returns it.
func TestHalfRoundTrip(t *testing.T) {
	for h := 0; h <= 0xffff; h++ {
		f := HalfToFloat32(uint16(h))
		want := uint16(h)
		if h&0x7c00 == 0x7c00 && h&0x3ff != 0 {
			if !math.IsNaN(float64(f)) {
				t.Fatalf("half %#04x widened to %v, want NaN", h, f)
			}
			want |= 0x200
		}
		if got := HalfFromFloat32(f); got != want {
			t.Fatalf("half %#04x → %v (%#08x) → %#04x, want %#04x", h, f, math.Float32bits(f), got, want)
		}
	}
	if HalfToFloat32(0x3c00) != 1 || HalfToFloat32(0x0001) != float32(math.Ldexp(1, -24)) ||
		HalfToFloat32(0x7bff) != 65504 || HalfToFloat32(0x0400) != float32(math.Ldexp(1, -14)) {
		t.Fatal("landmark halves widen wrong")
	}
}

// TestHalfFromFloat32MatchesReference holds the converter to refHalf on
// every value halfProbeValues lists.
func TestHalfFromFloat32MatchesReference(t *testing.T) {
	ladder := halfLadder()
	for _, f := range halfProbeValues() {
		if math.IsInf(float64(f), 0) {
			continue
		}
		if got, want := HalfFromFloat32(f), refHalf(ladder, f); got != want {
			t.Fatalf("HalfFromFloat32(%v = %#08x) = %#04x, exact rounding gives %#04x", f, math.Float32bits(f), got, want)
		}
	}
	for _, c := range []struct {
		f    float32
		want uint16
	}{
		{float32(math.Inf(1)), 0x7c00}, {float32(math.Inf(-1)), 0xfc00},
		{float32(math.Copysign(0, -1)), 0x8000}, {0, 0},
		{65520, 0x7c00}, {65519.996, 0x7bff},
		{float32(math.Ldexp(1, -25)), 0},      // the tie below the smallest subnormal goes to even 0
		{float32(math.Ldexp(3, -26)), 0x0001}, // ¾ of it rounds up
		{float32(math.Ldexp(3, -25)), 0x0002}, // 1.5 units: tie to even 2
		{float32(math.Ldexp(5, -25)), 0x0002}, // 2.5 units: tie to even 2
		{1 + float32(math.Ldexp(1, -11)), 0x3c00},
		{1 + float32(math.Ldexp(3, -11)), 0x3c02},
		{float32(math.Ldexp(1023.5, -24)), 0x0400}, // rounding carries into the smallest normal
	} {
		if got := HalfFromFloat32(c.f); got != c.want {
			t.Errorf("HalfFromFloat32(%v) = %#04x, want %#04x", c.f, got, c.want)
		}
	}
}

// TestHalfsFromFloat32sMatchesScalar holds the batch converter (VCVTPS2PH
// blocks of eight where the CPU has F16C, then a scalar tail) to
// HalfFromFloat32 element by element, at every length up to 40 and
// every start offset in a block, over halfProbeValues and arbitrary bit
// patterns.
func TestHalfsFromFloat32sMatchesScalar(t *testing.T) {
	xs := halfProbeValues()
	for i := uint32(0); len(xs) < 4096; i++ {
		xs = append(xs, math.Float32frombits(i*0x9e3779b9))
	}
	for off := 0; off < 8; off++ {
		for n := 0; n <= 40; n++ {
			for at := off; at+n <= len(xs); at += 97 {
				src := xs[at : at+n]
				dst := make([]uint16, n+1)
				dst[n] = 0xdead
				HalfsFromFloat32s(dst, src)
				for i, f := range src {
					if want := HalfFromFloat32(f); dst[i] != want {
						t.Fatalf("len %d at %d: [%d] = %#04x, HalfFromFloat32(%#08x) = %#04x", n, at, i, dst[i], math.Float32bits(f), want)
					}
				}
				if dst[n] != 0xdead {
					t.Fatalf("len %d at %d: wrote past len(src)", n, at)
				}
			}
		}
	}
}
