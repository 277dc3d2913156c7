package vec

import "math"

// IEEE 754 binary16 ("half") conversions. Hash families store their
// directions as binary16 (lshfunc.Family) and the projection kernels
// (DotRowsF16, DotRowsManyF16) widen them to float32 on the fly.

// HalfToFloat32 widens the binary16 value h to float32. Every binary16
// value, subnormals and NaN payloads included, is exactly representable in
// float32, so the widening is exact; it is what VCVTPH2PS computes.
//
// The exponent and fraction bits, moved to the top of a float32's, read as
// the value scaled by 2⁻¹¹² (the bias difference 127 - 15), subnormals
// included, so one exact multiply by 2¹¹² rebiases every finite value; an
// all-ones exponent (±Inf, NaN) is then set to all ones again. Without a
// branch per case the function inlines into the portable projection.
func HalfToFloat32(h uint16) float32 {
	b := math.Float32bits(math.Float32frombits(uint32(h&0x7fff)<<13) * 0x1p112)
	if h&0x7c00 == 0x7c00 {
		b |= 0x7f800000
	}
	return math.Float32frombits(b | uint32(h&0x8000)<<16)
}

// HalfFromFloat32 rounds f to the nearest binary16 value, ties to even,
// as VCVTPS2PH with rounding control 0 does: magnitudes past the largest
// finite half (65504) round to ±Inf once they reach 65520, magnitudes
// below the smallest subnormal's half (2⁻²⁵) round to ±0, and a NaN stays
// a NaN with the quiet bit set and the top ten fraction bits kept.
func HalfFromFloat32(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int(b>>23) & 0xff
	mant := b & 0x7fffff
	if exp == 0xff {
		if mant == 0 {
			return sign | 0x7c00
		}
		return sign | 0x7e00 | uint16(mant>>13)
	}
	// e is the unbiased exponent; a float32 subnormal is far below the
	// half range and rounds to zero like any other tiny value.
	e := exp - 127
	if e > 15 {
		return sign | 0x7c00
	}
	if e < -25 || exp == 0 {
		return sign
	}
	// Significand with its hidden bit: 24 bits. A normal half keeps the
	// top 11 of them; a subnormal (e < -14) keeps fewer, one less per
	// step below -14, as the fixed 2⁻²⁴ unit of the subnormal range.
	sig := mant | 0x800000
	shift := uint(13)
	if e < -14 {
		shift += uint(-14 - e)
	}
	kept := sig >> shift
	rem := sig & (1<<shift - 1)
	half := uint32(1) << (shift - 1)
	if rem > half || (rem == half && kept&1 == 1) {
		kept++
	}
	if e < -14 {
		// kept counts units of 2⁻²⁴; rounding up to 0x400 carries into
		// the smallest normal, whose encoding is the same bits.
		return sign | uint16(kept)
	}
	// Normal: kept is 0x400..0x800 (0x800 when rounding carried past the
	// significand); adding the biased exponent above the hidden bit's
	// position lets the carry step the exponent, and e = 15 carrying to
	// 16 lands on the Inf encoding.
	return sign | uint16(uint32(e+14)<<10+kept)
}

// HalfsFromFloat32s rounds each src[i] into dst[i] as HalfFromFloat32
// does, eight at a time with VCVTPS2PH where the CPU has F16C (amd64).
// dst must be at least as long as src.
func HalfsFromFloat32s(dst []uint16, src []float32) {
	dst = dst[:len(src)]
	for i := halfsFromFloat32sArch(dst, src); i < len(src); i++ {
		dst[i] = HalfFromFloat32(src[i])
	}
}
