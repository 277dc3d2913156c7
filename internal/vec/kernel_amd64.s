//go:build amd64 && !noasm

#include "textflag.h"

// AVX2 bodies for the distance kernels. Each body processes `blocks`
// groups of 4 float32 elements and OVERWRITES the caller's accumulator
// array; the Go wrappers in kernel_simd.go handle tails and reductions.
//
// Bit-exactness contract (see kernel.go): float32 lanes are widened to
// float64 with VCVTPS2PD (exact), then multiplied/subtracted/added in
// float64 — the same sequence of IEEE operations, in the same lane order,
// as the portable kernel's four scalar accumulators. No body fuses a
// multiply-add.
//
// Plan9 operand order is reversed from Intel: VSUBPD A, B, C means
// C = B - A.

// func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func dotBodyAVX2(a, b *float32, blocks int, acc *[4]float64)
TEXT ·dotBodyAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ blocks+16(FP), CX
	MOVQ acc+24(FP), DX
	VXORPD Y0, Y0, Y0

dotloop:
	VCVTPS2PD (SI), Y1 // 4 x float32 -> 4 x float64
	VCVTPS2PD (DI), Y2
	VMULPD Y2, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  dotloop

	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func dot4BodyAVX2(rows, q *float32, stride, blocks int, acc *[16]float64)
//
// Four consecutive rows (stride bytes apart) against one query. One Dot is
// a single VADDPD dependency chain, latency-bound at one block per add
// latency; the four chains here (Y0..Y3) are independent and share the
// widened query, so the loop runs at load/convert throughput instead.
// Each chain is lane-for-lane the one dotBodyAVX2 computes for its row.
TEXT ·dot4BodyAVX2(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), SI
	MOVQ q+8(FP), R8
	MOVQ stride+16(FP), AX
	MOVQ blocks+24(FP), CX
	MOVQ acc+32(FP), DX
	LEAQ (SI)(AX*1), DI  // row 1
	LEAQ (DI)(AX*1), R9  // row 2
	LEAQ (R9)(AX*1), R10 // row 3
	XORQ BX, BX          // byte offset into q and every row
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

dot4loop:
	VCVTPS2PD (R8)(BX*1), Y4 // q
	VCVTPS2PD (SI)(BX*1), Y5
	VCVTPS2PD (DI)(BX*1), Y6
	VCVTPS2PD (R9)(BX*1), Y7
	VCVTPS2PD (R10)(BX*1), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $16, BX
	DECQ CX
	JNZ  dot4loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VZEROUPPER
	RET

// func prefetch2(p0, p1 unsafe.Pointer, n int)
//
// Touches the cache lines at offsets 0, 64, 128, ... < n of both rows,
// then the line holding byte n-1 (a row that does not start on a line
// boundary ends one line later). Requires n > 0.
TEXT ·prefetch2(SB), NOSPLIT, $0-24
	MOVQ p0+0(FP), SI
	MOVQ p1+8(FP), DI
	MOVQ n+16(FP), CX

pfloop:
	PREFETCHT0 (SI)
	PREFETCHT0 (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $64, CX
	JG   pfloop

	// CX = n - 64*iterations <= 0, so SI+CX-1 is the row's byte n-1.
	PREFETCHT0 -1(SI)(CX*1)
	PREFETCHT0 -1(DI)(CX*1)
	RET

// func sqDistBodyAVX2(a, b *float32, blocks int, acc *[4]float64)
TEXT ·sqDistBodyAVX2(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ blocks+16(FP), CX
	MOVQ acc+24(FP), DX
	VXORPD Y0, Y0, Y0

sqloop:
	VCVTPS2PD (SI), Y1
	VCVTPS2PD (DI), Y2
	VSUBPD Y2, Y1, Y1 // Y1 = a - b
	VMULPD Y1, Y1, Y1
	VADDPD Y1, Y0, Y0
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  sqloop

	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func sqDist2BodyAVX2(a0, a1, q *float32, blocks int, acc *[8]float64)
//
// Two rows against one query. The two accumulator chains (Y0, Y1) are
// independent, so the adds pipeline instead of serializing on vaddpd
// latency — this is where the bulk of the shortlist-scan speedup comes
// from. The query conversion is shared between the rows.
TEXT ·sqDist2BodyAVX2(SB), NOSPLIT, $0-40
	MOVQ a0+0(FP), SI
	MOVQ a1+8(FP), DI
	MOVQ q+16(FP), R8
	MOVQ blocks+24(FP), CX
	MOVQ acc+32(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

sq2loop:
	VCVTPS2PD (R8), Y2 // q
	VCVTPS2PD (SI), Y3 // row 0
	VCVTPS2PD (DI), Y4 // row 1
	VSUBPD Y2, Y3, Y3
	VSUBPD Y2, Y4, Y4
	VMULPD Y3, Y3, Y3
	VMULPD Y4, Y4, Y4
	VADDPD Y3, Y0, Y0
	VADDPD Y4, Y1, Y1
	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, R8
	DECQ CX
	JNZ  sq2loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// func sqDistSQ8BodyAVX2(c *uint8, q, min, scale *float32, blocks int, acc *[4]float64)
//
// Asymmetric SQ8 distance: dequantize v = min + scale*float32(code) in
// float32 (matching the portable expression exactly), widen to float64,
// then accumulate the squared difference against the float32-widened
// query.
TEXT ·sqDistSQ8BodyAVX2(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), SI
	MOVQ q+8(FP), R8
	MOVQ min+16(FP), R9
	MOVQ scale+24(FP), R10
	MOVQ blocks+32(FP), CX
	MOVQ acc+40(FP), DX
	VXORPD Y0, Y0, Y0

sq8loop:
	VPMOVZXBD (SI), X2  // 4 codes -> 4 x int32
	VCVTDQ2PS X2, X2    // -> float32 (exact: codes are 0..255)
	VMOVUPS   (R10), X4
	VMULPS    X4, X2, X2 // scale * code
	VMOVUPS   (R9), X5
	VADDPS    X5, X2, X2 // + min
	VCVTPS2PD X2, Y2     // dequantized row -> float64
	VCVTPS2PD (R8), Y4   // q -> float64
	VSUBPD    Y4, Y2, Y2
	VMULPD    Y2, Y2, Y2
	VADDPD    Y2, Y0, Y0
	ADDQ $4, SI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	DECQ CX
	JNZ  sq8loop

	VMOVUPD Y0, (DX)
	VZEROUPPER
	RET

// func sqDistSQ82BodyAVX2(c0, c1 *uint8, q, min, scale *float32, blocks int, acc *[8]float64)
//
// Two SQ8 rows against one query; min/scale/q loads and conversions are
// shared, and the two float64 accumulator chains stay independent.
TEXT ·sqDistSQ82BodyAVX2(SB), NOSPLIT, $0-56
	MOVQ c0+0(FP), SI
	MOVQ c1+8(FP), DI
	MOVQ q+16(FP), R8
	MOVQ min+24(FP), R9
	MOVQ scale+32(FP), R10
	MOVQ blocks+40(FP), CX
	MOVQ acc+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

sq82loop:
	VPMOVZXBD (SI), X2
	VPMOVZXBD (DI), X3
	VCVTDQ2PS X2, X2
	VCVTDQ2PS X3, X3
	VMOVUPS   (R10), X4
	VMULPS    X4, X2, X2
	VMULPS    X4, X3, X3
	VMOVUPS   (R9), X5
	VADDPS    X5, X2, X2
	VADDPS    X5, X3, X3
	VCVTPS2PD X2, Y2
	VCVTPS2PD X3, Y3
	VCVTPS2PD (R8), Y4
	VSUBPD    Y4, Y2, Y2
	VSUBPD    Y4, Y3, Y3
	VMULPD    Y2, Y2, Y2
	VMULPD    Y3, Y3, Y3
	VADDPD    Y2, Y0, Y0
	VADDPD    Y3, Y1, Y1
	ADDQ $4, SI
	ADDQ $4, DI
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $16, R10
	DECQ CX
	JNZ  sq82loop

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET

// Binary16 projection bodies. Each widens 8 binary16 directions at a time
// to float32 with VCVTPH2PS (exact) and accumulates in 8 float32 lanes:
// VMULPS rounds each product to float32 and VADDPS adds it, the portable
// kernel's acc = acc + float32(h*q) lane for lane (never fused, see
// kernel.go). Lane j of a chain holds elements j, j+8, ...; the Go
// wrappers add the tail and reduce. Every row and vector pointer advances
// by 16 bytes of directions and 32 bytes of float32 per block.

// func dotF16BodyAVX2(h *uint16, q *float32, blocks int, acc *[8]float32)
TEXT ·dotF16BodyAVX2(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), SI
	MOVQ q+8(FP), R8
	MOVQ blocks+16(FP), CX
	MOVQ acc+24(FP), DX
	XORQ BX, BX // byte offset into the row; q's is twice it
	VXORPS Y0, Y0, Y0

dotf16loop:
	VCVTPH2PS (SI)(BX*1), Y1
	VMULPS (R8)(BX*2), Y1, Y1
	VADDPS Y1, Y0, Y0
	ADDQ $16, BX
	DECQ CX
	JNZ  dotf16loop

	VMOVUPS Y0, (DX)
	VZEROUPPER
	RET

// func dot4F16BodyAVX2(rows *uint16, q *float32, stride, blocks int, acc *[32]float32)
//
// Four consecutive rows (stride bytes apart) against one query: four
// independent chains (Y0..Y3) sharing each loaded query block, chain r in
// acc[8*r:], each lane for lane the chain dotF16BodyAVX2 computes.
TEXT ·dot4F16BodyAVX2(SB), NOSPLIT, $0-40
	MOVQ rows+0(FP), SI
	MOVQ q+8(FP), R8
	MOVQ stride+16(FP), AX
	MOVQ blocks+24(FP), CX
	MOVQ acc+32(FP), DX
	LEAQ (SI)(AX*1), DI  // row 1
	LEAQ (DI)(AX*1), R9  // row 2
	LEAQ (R9)(AX*1), R10 // row 3
	XORQ BX, BX          // byte offset into every row; q's is twice it
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

dot4f16loop:
	VMOVUPS (R8)(BX*2), Y4 // q
	VCVTPH2PS (SI)(BX*1), Y5
	VCVTPH2PS (DI)(BX*1), Y6
	VCVTPH2PS (R9)(BX*1), Y7
	VCVTPH2PS (R10)(BX*1), Y8
	VMULPS Y4, Y5, Y5
	VMULPS Y4, Y6, Y6
	VMULPS Y4, Y7, Y7
	VMULPS Y4, Y8, Y8
	VADDPS Y5, Y0, Y0
	VADDPS Y6, Y1, Y1
	VADDPS Y7, Y2, Y2
	VADDPS Y8, Y3, Y3
	ADDQ $16, BX
	DECQ CX
	JNZ  dot4f16loop

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VZEROUPPER
	RET

// func dot4x2F16BodyAVX2(v0, v1, v2, v3 *float32, r0, r1 *uint16, blocks int, acc *[64]float32)
//
// Four vectors against two direction rows: eight independent chains,
// chain 2*v+r in Y(2*v+r) and acc[16*v+8*r:], each lane for lane the chain
// dotF16BodyAVX2 computes for that vector and row. Each row block is
// widened once for the four vectors.
TEXT ·dot4x2F16BodyAVX2(SB), NOSPLIT, $0-64
	MOVQ v0+0(FP), SI
	MOVQ v1+8(FP), DI
	MOVQ v2+16(FP), R8
	MOVQ v3+24(FP), R9
	MOVQ r0+32(FP), R10
	MOVQ r1+40(FP), R11
	MOVQ blocks+48(FP), CX
	MOVQ acc+56(FP), DX
	XORQ BX, BX // byte offset into both rows; the vectors' is twice it
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

dot4x2f16loop:
	VCVTPH2PS (R10)(BX*1), Y8 // row 0
	VCVTPH2PS (R11)(BX*1), Y9 // row 1
	VMOVUPS (SI)(BX*2), Y10   // vector 0
	VMOVUPS (DI)(BX*2), Y11   // vector 1
	VMOVUPS (R8)(BX*2), Y12   // vector 2
	VMOVUPS (R9)(BX*2), Y13   // vector 3
	VMULPS Y8, Y10, Y14
	VMULPS Y9, Y10, Y15
	VADDPS Y14, Y0, Y0        // Y0 += vector 0 * row 0
	VADDPS Y15, Y1, Y1
	VMULPS Y8, Y11, Y14
	VMULPS Y9, Y11, Y15
	VADDPS Y14, Y2, Y2
	VADDPS Y15, Y3, Y3
	VMULPS Y8, Y12, Y14
	VMULPS Y9, Y12, Y15
	VADDPS Y14, Y4, Y4
	VADDPS Y15, Y5, Y5
	VMULPS Y8, Y13, Y14
	VMULPS Y9, Y13, Y15
	VADDPS Y14, Y6, Y6
	VADDPS Y15, Y7, Y7
	ADDQ $16, BX
	DECQ CX
	JNZ  dot4x2f16loop

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	VZEROUPPER
	RET

// func halfFromFloat32sF16C(dst *uint16, src *float32, blocks int)
//
// VCVTPS2PH with rounding control 0 (nearest, ties to even) over blocks
// of 8 values: HalfsFromFloat32s's body, and the hardware reference the
// tests hold HalfFromFloat32 to.
TEXT ·halfFromFloat32sF16C(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ blocks+16(FP), CX

halfloop:
	VMOVUPS (SI), Y0
	VCVTPS2PH $0, Y0, X1
	VMOVDQU X1, (DI)
	ADDQ $32, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  halfloop

	VZEROUPPER
	RET

// func prefetchN(ps *unsafe.Pointer, n int)
TEXT ·prefetchN(SB), NOSPLIT, $0-16
	MOVQ ps+0(FP), SI
	MOVQ n+8(FP), CX

pfnloop:
	MOVQ (SI), AX
	PREFETCHT0 (AX)
	ADDQ $8, SI
	DECQ CX
	JNZ  pfnloop
	RET
