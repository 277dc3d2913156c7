//go:build amd64 && !noasm

package vec

import (
	"math"
	"testing"

	"bilsh/internal/xrand"
)

// TestHalfFromFloat32MatchesF16C holds the portable converter to
// VCVTPS2PH on every value halfProbeValues lists and on a seeded sample
// of arbitrary float32 bit patterns (NaNs and infinities included) and
// of Gaussian draws, the values a family rounds.
func TestHalfFromFloat32MatchesF16C(t *testing.T) {
	if !hasF16C {
		t.Skip("no F16C on this CPU")
	}
	xs := halfProbeValues()
	rng := xrand.New(48)
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, math.Float32frombits(uint32(rng.Int63())))
	}
	xs = append(xs, rng.GaussianVec(1<<18)...)
	for len(xs)%8 != 0 {
		xs = append(xs, 0)
	}
	hw := make([]uint16, len(xs))
	halfFromFloat32sF16C(&hw[0], &xs[0], len(xs)/8)
	for i, f := range xs {
		if got := HalfFromFloat32(f); got != hw[i] {
			t.Fatalf("HalfFromFloat32(%v = %#08x) = %#04x, VCVTPS2PH gives %#04x", f, math.Float32bits(f), got, hw[i])
		}
	}
}
