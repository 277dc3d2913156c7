//go:build arm64 && !noasm

package vec

import "unsafe"

// NEON kernel selection. NEON (ASIMD) is architecturally mandatory on
// AArch64, so there is no runtime feature probe — the kernel is always
// available; `-tags noasm` or BILSH_KERNEL=portable disable it.
//
// The assembly (kernel_arm64.s) widens float32 lanes to float64 with
// FCVTL/FCVTL2 before any arithmetic and never uses fused multiply-add,
// so it rounds identically to the portable kernel (which carries explicit
// conversions precisely because the Go compiler will otherwise fuse
// mul+add into FMADD on arm64).

//go:noescape
func dotBodyNEON(a, b *float32, blocks int, acc *[4]float64)

//go:noescape
func sqDistBodyNEON(a, b *float32, blocks int, acc *[4]float64)

//go:noescape
func sqDist2BodyNEON(a0, a1, q *float32, blocks int, acc *[8]float64)

//go:noescape
func sqDistSQ8BodyNEON(c *uint8, q, min, scale *float32, blocks int, acc *[4]float64)

//go:noescape
func sqDistSQ82BodyNEON(c0, c1 *uint8, q, min, scale *float32, blocks int, acc *[8]float64)

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

func dotBody(a, b *float32, blocks int, acc *[4]float64)    { dotBodyNEON(a, b, blocks, acc) }
func sqDistBody(a, b *float32, blocks int, acc *[4]float64) { sqDistBodyNEON(a, b, blocks, acc) }

// dot4Body runs the one-row body four times: there is no 4-row NEON body
// yet (no arm64 machine was available to execute one, see
// docs/performance.md), and four dotBody results are what a 4-row body
// must produce anyway, so DotRows is bit-identical either way.
func dot4Body(rows, q *float32, stride, blocks int, acc *[16]float64) {
	for r := 0; r < 4; r++ {
		row := (*float32)(unsafe.Add(unsafe.Pointer(rows), r*stride))
		dotBodyNEON(row, q, blocks, (*[4]float64)(acc[4*r:4*r+4]))
	}
}
func sqDist2Body(a0, a1, q *float32, blocks int, acc *[8]float64) {
	sqDist2BodyNEON(a0, a1, q, blocks, acc)
}
func sq8Body(c *uint8, q, min, scale *float32, blocks int, acc *[4]float64) {
	sqDistSQ8BodyNEON(c, q, min, scale, blocks, acc)
}
func sq82Body(c0, c1 *uint8, q, min, scale *float32, blocks int, acc *[8]float64) {
	sqDistSQ82BodyNEON(c0, c1, q, min, scale, blocks, acc)
}

func archKernels() []*kernel {
	return []*kernel{newSIMDKernel("neon")}
}

// halfsFromFloat32sArch converts nothing: HalfsFromFloat32s rounds every
// value with HalfFromFloat32.
func halfsFromFloat32sArch([]uint16, []float32) int { return 0 }
