//go:build amd64 && !noasm

package vec

import "unsafe"

// AVX2 kernel selection. The assembly (kernel_amd64.s) uses VCVTPS2PD to
// widen float32 lanes to float64 before any arithmetic, so every multiply,
// subtract and add rounds exactly like the portable kernel's float64
// expressions; FMA is deliberately not used (a fused multiply-add rounds
// once where the portable code rounds twice). Requires AVX2 plus OS-saved
// YMM state, probed below via CPUID/XGETBV — no cgo, no external deps.

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1|2: the OS saves/restores XMM and YMM state on context
	// switch. Without this, AVX registers are not usable even if the CPU
	// advertises them.
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

//go:noescape
func dotBodyAVX2(a, b *float32, blocks int, acc *[4]float64)

//go:noescape
func dot4BodyAVX2(rows, q *float32, stride, blocks int, acc *[16]float64)

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
	if !hasAVX2() {
		return nil
	}
	return []*kernel{newSIMDKernel("avx2")}
}
