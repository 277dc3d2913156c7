//go:build amd64 && !noasm

package vec

import "unsafe"

// AVX2 kernel selection. The assembly (kernel_amd64.s) uses VCVTPS2PD to
// widen float32 lanes to float64 before any arithmetic, so every multiply,
// subtract and add rounds exactly like the portable kernel's float64
// expressions. FMA is deliberately not used where a product rounds (a
// fused multiply-add rounds once where the portable code rounds twice):
// only the projection tile fuses, because the product of two float32
// values is exact in float64. Requires AVX2 plus OS-saved YMM state, and
// FMA for the tile, probed below via CPUID/XGETBV — no cgo, no external
// deps.

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

// cpuFeatures reports whether AVX2, and FMA beside it, are usable.
func cpuFeatures() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
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
	return avx2, avx2 && ecx1&fmaBit != 0
}

//go:noescape
func dotBodyAVX2(a, b *float32, blocks int, acc *[4]float64)

//go:noescape
func dot4BodyAVX2(rows, q *float32, stride, blocks int, acc *[16]float64)

//go:noescape
func dot4x2BodyFMA(v0, v1, v2, v3, r0, r1 *float32, blocks int, acc *[32]float64)

//go:noescape
func sqDistBodyAVX2(a, b *float32, blocks int, acc *[4]float64)

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

func archKernels() []*kernel {
	avx2, fma := cpuFeatures()
	if !avx2 {
		return nil
	}
	k := newSIMDKernel("avx2")
	if fma {
		// Without FMA, DotRowsMany inherits the loop over DotRows.
		k.dotRowsMany = avx2DotRowsMany
	}
	return []*kernel{k}
}

// avx2DotRowsMany runs DotRowsMany in tiles of 4 vectors × 2 rows. Each
// tile's chains finish like simdDot's: the scalar tail on lane 0, then the
// fixed reduction. A last odd row and a 1-3 vector remainder go through
// simdDot and simdDotRows, so every output is the one DotRows gives.
func avx2DotRowsMany(out []float64, rows []float32, d int, vs [][]float32) {
	m := len(rows) / d
	blocks := d >> 2
	var acc [32]float64
	r := 0
	for ; r+4 <= len(vs) && blocks > 0; r += 4 {
		v := vs[r : r+4 : r+4]
		o := out[r*m : (r+4)*m : (r+4)*m]
		j := 0
		for ; j+2 <= m; j += 2 {
			r0 := rows[j*d : (j+1)*d : (j+1)*d]
			r1 := rows[(j+1)*d : (j+2)*d : (j+2)*d]
			dot4x2BodyFMA(&v[0][0], &v[1][0], &v[2][0], &v[3][0], &r0[0], &r1[0], blocks, &acc)
			for k, x := range v {
				o[k*m+j] = finishDot(acc[8*k:8*k+4:8*k+4], r0, x)
				o[k*m+j+1] = finishDot(acc[8*k+4:8*k+8:8*k+8], r1, x)
			}
		}
		if j < m {
			for k, x := range v {
				o[k*m+j] = simdDot(rows[j*d:(j+1)*d:(j+1)*d], x)
			}
		}
	}
	for ; r < len(vs); r++ {
		simdDotRows(out[r*m:(r+1)*m:(r+1)*m], rows, d, vs[r])
	}
}

// finishDot completes one chain of a tile as simdDot completes its own:
// the elements past the last whole block of row·x added to lane 0, then
// (s0+s1)+(s2+s3).
func finishDot(acc []float64, row, x []float32) float64 {
	s0 := acc[0]
	for i := len(row) &^ 3; i < len(row); i++ {
		s0 += float64(row[i]) * float64(x[i])
	}
	return (s0 + acc[1]) + (acc[2] + acc[3])
}
