//go:build amd64 && !noasm

package vec

import "unsafe"

// AVX2 kernel selection. The assembly (kernel_amd64.s) uses VCVTPS2PD to
// widen float32 lanes to float64 before any arithmetic, so every multiply,
// subtract and add rounds exactly like the portable kernel's float64
// expressions. No body uses FMA (a fused multiply-add rounds once where
// the portable code rounds twice). Requires AVX2 plus OS-saved YMM state,
// probed below via CPUID/XGETBV — no cgo, no external deps. The binary16
// projection bodies need F16C (VCVTPH2PS) beside AVX2; they compute in
// float32 lanes without FMA (see kernel.go).

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

// cpuFeatures reports whether AVX2, and F16C beside it, are usable.
func cpuFeatures() (avx2, f16c bool) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
		f16cBit    = 1 << 29
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	// XCR0 bits 1|2: the OS saves/restores XMM and YMM state on context
	// switch. Without this, AVX registers are not usable even if the CPU
	// advertises them.
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 {
		return false, false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	avx2 = ebx7&avx2Bit != 0
	return avx2, avx2 && ecx1&f16cBit != 0
}

//go:noescape
func dotBodyAVX2(a, b *float32, blocks int, acc *[4]float64)

//go:noescape
func dot4BodyAVX2(rows, q *float32, stride, blocks int, acc *[16]float64)

//go:noescape
func sqDistBodyAVX2(a, b *float32, blocks int, acc *[4]float64)

//go:noescape
func dotF16BodyAVX2(h *uint16, q *float32, blocks int, acc *[8]float32)

//go:noescape
func dot4F16BodyAVX2(rows *uint16, q *float32, stride, blocks int, acc *[32]float32)

//go:noescape
func dot4x2F16BodyAVX2(v0, v1, v2, v3 *float32, r0, r1 *uint16, blocks int, acc *[64]float32)

// halfFromFloat32sF16C converts blocks·8 float32 values at src to binary16
// at dst with VCVTPS2PH (round to nearest even); it needs F16C and
// blocks > 0.
//
//go:noescape
func halfFromFloat32sF16C(dst *uint16, src *float32, blocks int)

//go:noescape
func sqDist2BodyAVX2(a0, a1, q *float32, blocks int, acc *[8]float64)

//go:noescape
func sqDistSQ8BodyAVX2(c *uint8, q, min, scale *float32, blocks int, acc *[4]float64)

//go:noescape
func sqDistSQ82BodyAVX2(c0, c1 *uint8, q, min, scale *float32, blocks int, acc *[8]float64)

// prefetch2 prefetches the cache lines at p0 and p1, at every 64 bytes
// below n, and at byte n-1 (n > 0): the first n bytes of two rows.
//
//go:noescape
func prefetch2(p0, p1 unsafe.Pointer, n int)

// prefetchN prefetches the cache line at each of the n addresses at ps.
//
//go:noescape
func prefetchN(ps *unsafe.Pointer, n int)

// The fixed-name body functions kernel_simd.go calls. They must stay thin
// direct wrappers (inlined, statically resolved) so the //go:noescape on
// the stubs above is visible at the shared wrappers' call sites — see the
// indirection note in kernel_simd.go.

func dotBody(a, b *float32, blocks int, acc *[4]float64)    { dotBodyAVX2(a, b, blocks, acc) }
func sqDistBody(a, b *float32, blocks int, acc *[4]float64) { sqDistBodyAVX2(a, b, blocks, acc) }
func dot4Body(rows, q *float32, stride, blocks int, acc *[16]float64) {
	dot4BodyAVX2(rows, q, stride, blocks, acc)
}
func sqDist2Body(a0, a1, q *float32, blocks int, acc *[8]float64) {
	sqDist2BodyAVX2(a0, a1, q, blocks, acc)
}
func sq8Body(c *uint8, q, min, scale *float32, blocks int, acc *[4]float64) {
	sqDistSQ8BodyAVX2(c, q, min, scale, blocks, acc)
}
func sq82Body(c0, c1 *uint8, q, min, scale *float32, blocks int, acc *[8]float64) {
	sqDistSQ82BodyAVX2(c0, c1, q, min, scale, blocks, acc)
}

// hasF16C records whether the binary16 bodies (and the tests' VCVTPS2PH
// reference) can run on this CPU.
var hasF16C bool

func archKernels() []*kernel {
	avx2, f16c := cpuFeatures()
	if !avx2 {
		return nil
	}
	k := newSIMDKernel("avx2")
	if f16c {
		// Without F16C, the binary16 projections inherit the portable
		// kernel's.
		hasF16C = true
		k.dotRowsF16 = avx2DotRowsF16
		k.dotRowsManyF16 = avx2DotRowsManyF16
	}
	return []*kernel{k}
}

// halfsFromFloat32sArch converts the leading whole blocks of eight of src
// into dst with VCVTPS2PH when the CPU has F16C, and returns how many
// values it converted.
func halfsFromFloat32sArch(dst []uint16, src []float32) int {
	blocks := len(src) >> 3
	if !hasF16C || blocks == 0 {
		return 0
	}
	halfFromFloat32sF16C(&dst[0], &src[0], blocks)
	return blocks << 3
}

// avx2DotF16 is one binary16 projection through dotF16BodyAVX2, finished
// as the portable kernel finishes its lanes.
func avx2DotF16(h []uint16, q []float32) float32 {
	blocks := len(h) >> 3
	var acc [8]float32
	if blocks > 0 {
		dotF16BodyAVX2(&h[0], &q[0], blocks, &acc)
	}
	tail := blocks << 3
	return f16Finish(acc, h[tail:], q[tail:len(h)])
}

// avx2DotRowsF16 runs DotRowsF16 four rows at a time; a 1-3 row remainder
// goes through avx2DotF16.
func avx2DotRowsF16(out []float64, rows []uint16, d int, q []float32) {
	blocks := d >> 3
	tail := blocks << 3
	var acc [32]float32
	i := 0
	for ; i+4 <= len(out); i += 4 {
		base := i * d
		if blocks > 0 {
			dot4F16BodyAVX2(&rows[base], &q[0], 2*d, blocks, &acc)
		} else {
			acc = [32]float32{}
		}
		for r := 0; r < 4; r++ {
			row := rows[base+r*d : base+(r+1)*d : base+(r+1)*d]
			out[i+r] = float64(f16Finish([8]float32(acc[8*r:8*r+8]), row[tail:], q[tail:]))
		}
	}
	for ; i < len(out); i++ {
		out[i] = float64(avx2DotF16(rows[i*d:(i+1)*d:(i+1)*d], q))
	}
}

// avx2DotRowsManyF16 runs DotRowsManyF16 in tiles of 4 vectors × 2 rows;
// a last odd row goes through avx2DotF16 and a 1-3 vector remainder
// through avx2DotRowsF16, so every output is the one DotRowsF16 gives.
func avx2DotRowsManyF16(out []float64, rows []uint16, d int, vs [][]float32) {
	m := len(rows) / d
	blocks := d >> 3
	tail := blocks << 3
	var acc [64]float32
	r := 0
	for ; r+4 <= len(vs) && blocks > 0; r += 4 {
		v := vs[r : r+4 : r+4]
		o := out[r*m : (r+4)*m : (r+4)*m]
		j := 0
		for ; j+2 <= m; j += 2 {
			r0 := rows[j*d : (j+1)*d : (j+1)*d]
			r1 := rows[(j+1)*d : (j+2)*d : (j+2)*d]
			dot4x2F16BodyAVX2(&v[0][0], &v[1][0], &v[2][0], &v[3][0], &r0[0], &r1[0], blocks, &acc)
			for k, x := range v {
				o[k*m+j] = float64(f16Finish([8]float32(acc[16*k:16*k+8]), r0[tail:], x[tail:]))
				o[k*m+j+1] = float64(f16Finish([8]float32(acc[16*k+8:16*k+16]), r1[tail:], x[tail:]))
			}
		}
		if j < m {
			row := rows[j*d : (j+1)*d : (j+1)*d]
			for k, x := range v {
				o[k*m+j] = float64(avx2DotF16(row, x))
			}
		}
	}
	for ; r < len(vs); r++ {
		avx2DotRowsF16(out[r*m:(r+1)*m:(r+1)*m], rows, d, vs[r])
	}
}
