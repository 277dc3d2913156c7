//go:build arm64 && !noasm

#include "textflag.h"

// NEON bodies for the distance kernels. Same contract as the AVX2 bodies
// (kernel_amd64.s): process `blocks` groups of 4 float32 elements,
// OVERWRITE the caller's accumulator lanes, leave tails and reductions to
// the Go wrappers. Lane mapping: FCVTL widens elements 0,1 (portable
// accumulators s0,s1), FCVTL2 widens elements 2,3 (s2,s3), so acc comes
// back as [s0 s1 s2 s3] exactly like the portable and AVX2 kernels.
//
// The Go assembler has no mnemonics for the vector float64 arithmetic and
// the widening conversions (FCVTL/FCVTL2, FADD/FSUB/FMUL .2D/.4S, UCVTF),
// so those are emitted as WORD-encoded instructions; each carries its
// disassembly. Encodings follow the Arm ARM A64 layouts:
//   fcvtl  vD.2d, vN.2s : 0x0e617800 | N<<5 | D
//   fcvtl2 vD.2d, vN.4s : 0x4e617800 | N<<5 | D
//   fadd   vD.2d, vN.2d, vM.2d : 0x4e60d400 | M<<16 | N<<5 | D
//   fsub   vD.2d, vN.2d, vM.2d : 0x4ee0d400 | M<<16 | N<<5 | D
//   fmul   vD.2d, vN.2d, vM.2d : 0x6e60dc00 | M<<16 | N<<5 | D
//   fadd   vD.4s, vN.4s, vM.4s : 0x4e20d400 | M<<16 | N<<5 | D
//   fmul   vD.4s, vN.4s, vM.4s : 0x6e20dc00 | M<<16 | N<<5 | D
//   ucvtf  vD.4s, vN.4s : 0x6e21d800 | N<<5 | D

// func dotBodyNEON(a, b *float32, blocks int, acc *[4]float64)
TEXT ·dotBodyNEON(SB), NOSPLIT, $0-32
	MOVD a+0(FP), R0
	MOVD b+8(FP), R1
	MOVD blocks+16(FP), R2
	MOVD acc+24(FP), R3
	VEOR V0.B16, V0.B16, V0.B16 // s0,s1
	VEOR V1.B16, V1.B16, V1.B16 // s2,s3

dotloop:
	VLD1.P 16(R0), [V2.S4]
	VLD1.P 16(R1), [V3.S4]
	WORD $0x0e617844 // fcvtl  v4.2d, v2.2s
	WORD $0x4e617845 // fcvtl2 v5.2d, v2.4s
	WORD $0x0e617866 // fcvtl  v6.2d, v3.2s
	WORD $0x4e617867 // fcvtl2 v7.2d, v3.4s
	WORD $0x6e66dc84 // fmul v4.2d, v4.2d, v6.2d
	WORD $0x6e67dca5 // fmul v5.2d, v5.2d, v7.2d
	WORD $0x4e64d400 // fadd v0.2d, v0.2d, v4.2d
	WORD $0x4e65d421 // fadd v1.2d, v1.2d, v5.2d
	SUBS $1, R2, R2
	BNE  dotloop

	VST1 [V0.D2, V1.D2], (R3)
	RET

// func prefetch2(p0, p1 unsafe.Pointer, n int)
//
// Touches the cache lines at offsets 0, 64, 128, ... < n of both rows,
// then the line holding byte n-1 (a row that does not start on a line
// boundary ends one line later). Requires n > 0.
TEXT ·prefetch2(SB), NOSPLIT, $0-24
	MOVD p0+0(FP), R0
	MOVD p1+8(FP), R1
	MOVD n+16(FP), R2

pfloop:
	PRFM (R0), PLDL1KEEP
	PRFM (R1), PLDL1KEEP
	ADD  $64, R0
	ADD  $64, R1
	SUBS $64, R2, R2
	BGT  pfloop

	// R2 = n - 64*iterations <= 0, so R0+R2-1 is the row's byte n-1.
	SUB  $1, R2
	ADD  R2, R0
	ADD  R2, R1
	PRFM (R0), PLDL1KEEP
	PRFM (R1), PLDL1KEEP
	RET

// func sqDistBodyNEON(a, b *float32, blocks int, acc *[4]float64)
TEXT ·sqDistBodyNEON(SB), NOSPLIT, $0-32
	MOVD a+0(FP), R0
	MOVD b+8(FP), R1
	MOVD blocks+16(FP), R2
	MOVD acc+24(FP), R3
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16

sqloop:
	VLD1.P 16(R0), [V2.S4]
	VLD1.P 16(R1), [V3.S4]
	WORD $0x0e617844 // fcvtl  v4.2d, v2.2s
	WORD $0x4e617845 // fcvtl2 v5.2d, v2.4s
	WORD $0x0e617866 // fcvtl  v6.2d, v3.2s
	WORD $0x4e617867 // fcvtl2 v7.2d, v3.4s
	WORD $0x4ee6d484 // fsub v4.2d, v4.2d, v6.2d
	WORD $0x4ee7d4a5 // fsub v5.2d, v5.2d, v7.2d
	WORD $0x6e64dc84 // fmul v4.2d, v4.2d, v4.2d
	WORD $0x6e65dca5 // fmul v5.2d, v5.2d, v5.2d
	WORD $0x4e64d400 // fadd v0.2d, v0.2d, v4.2d
	WORD $0x4e65d421 // fadd v1.2d, v1.2d, v5.2d
	SUBS $1, R2, R2
	BNE  sqloop

	VST1 [V0.D2, V1.D2], (R3)
	RET

// func sqDist2BodyNEON(a0, a1, q *float32, blocks int, acc *[8]float64)
//
// Two rows, one query: V0/V1 accumulate row 0, V16/V17 row 1 — four
// independent add chains, and the query widening is shared.
TEXT ·sqDist2BodyNEON(SB), NOSPLIT, $0-40
	MOVD a0+0(FP), R0
	MOVD a1+8(FP), R1
	MOVD q+16(FP), R2
	MOVD blocks+24(FP), R3
	MOVD acc+32(FP), R4
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16

sq2loop:
	VLD1.P 16(R2), [V2.S4] // q
	VLD1.P 16(R0), [V3.S4] // row 0
	VLD1.P 16(R1), [V4.S4] // row 1
	WORD $0x0e617845 // fcvtl  v5.2d, v2.2s   (q lanes 0,1)
	WORD $0x4e617846 // fcvtl2 v6.2d, v2.4s   (q lanes 2,3)
	WORD $0x0e617867 // fcvtl  v7.2d, v3.2s
	WORD $0x4e617872 // fcvtl2 v18.2d, v3.4s
	WORD $0x0e617893 // fcvtl  v19.2d, v4.2s
	WORD $0x4e617894 // fcvtl2 v20.2d, v4.4s
	WORD $0x4ee5d4e7 // fsub v7.2d, v7.2d, v5.2d
	WORD $0x4ee6d652 // fsub v18.2d, v18.2d, v6.2d
	WORD $0x4ee5d673 // fsub v19.2d, v19.2d, v5.2d
	WORD $0x4ee6d694 // fsub v20.2d, v20.2d, v6.2d
	WORD $0x6e67dce7 // fmul v7.2d, v7.2d, v7.2d
	WORD $0x6e72de52 // fmul v18.2d, v18.2d, v18.2d
	WORD $0x6e73de73 // fmul v19.2d, v19.2d, v19.2d
	WORD $0x6e74de94 // fmul v20.2d, v20.2d, v20.2d
	WORD $0x4e67d400 // fadd v0.2d, v0.2d, v7.2d
	WORD $0x4e72d421 // fadd v1.2d, v1.2d, v18.2d
	WORD $0x4e73d610 // fadd v16.2d, v16.2d, v19.2d
	WORD $0x4e74d631 // fadd v17.2d, v17.2d, v20.2d
	SUBS $1, R3, R3
	BNE  sq2loop

	VST1.P [V0.D2, V1.D2], 32(R4)
	VST1 [V16.D2, V17.D2], (R4)
	RET

// func sqDistSQ8BodyNEON(c *uint8, q, min, scale *float32, blocks int, acc *[4]float64)
//
// Asymmetric SQ8: load 4 codes as one 32-bit lane, widen bytes->words
// with USHLL #0 twice, UCVTF to float32 (exact for 0..255), dequantize
// v = min + scale*code in float32 (matching the portable expression),
// then the float64 squared-difference accumulation.
TEXT ·sqDistSQ8BodyNEON(SB), NOSPLIT, $0-48
	MOVD c+0(FP), R0
	MOVD q+8(FP), R1
	MOVD min+16(FP), R2
	MOVD scale+24(FP), R3
	MOVD blocks+32(FP), R4
	MOVD acc+40(FP), R5
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16

sq8loop:
	FMOVS.P 4(R0), F2 // 4 codes -> v2.s[0]
	VUSHLL $0, V2.B8, V2.H8
	VUSHLL $0, V2.H4, V2.S4
	WORD $0x6e21d842 // ucvtf v2.4s, v2.4s
	VLD1.P 16(R3), [V4.S4] // scale
	WORD $0x6e24dc42 // fmul v2.4s, v2.4s, v4.4s
	VLD1.P 16(R2), [V5.S4] // min
	WORD $0x4e25d442 // fadd v2.4s, v2.4s, v5.4s
	VLD1.P 16(R1), [V3.S4] // q
	WORD $0x0e617846 // fcvtl  v6.2d, v2.2s
	WORD $0x4e617847 // fcvtl2 v7.2d, v2.4s
	WORD $0x0e617872 // fcvtl  v18.2d, v3.2s
	WORD $0x4e617873 // fcvtl2 v19.2d, v3.4s
	WORD $0x4ef2d4c6 // fsub v6.2d, v6.2d, v18.2d
	WORD $0x4ef3d4e7 // fsub v7.2d, v7.2d, v19.2d
	WORD $0x6e66dcc6 // fmul v6.2d, v6.2d, v6.2d
	WORD $0x6e67dce7 // fmul v7.2d, v7.2d, v7.2d
	WORD $0x4e66d400 // fadd v0.2d, v0.2d, v6.2d
	WORD $0x4e67d421 // fadd v1.2d, v1.2d, v7.2d
	SUBS $1, R4, R4
	BNE  sq8loop

	VST1 [V0.D2, V1.D2], (R5)
	RET

// func sqDistSQ82BodyNEON(c0, c1 *uint8, q, min, scale *float32, blocks int, acc *[8]float64)
//
// Two SQ8 rows, one query; min/scale/q loads and widenings are shared and
// the four accumulator chains stay independent.
TEXT ·sqDistSQ82BodyNEON(SB), NOSPLIT, $0-56
	MOVD c0+0(FP), R0
	MOVD c1+8(FP), R1
	MOVD q+16(FP), R2
	MOVD min+24(FP), R3
	MOVD scale+32(FP), R4
	MOVD blocks+40(FP), R5
	MOVD acc+48(FP), R6
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V16.B16, V16.B16, V16.B16
	VEOR V17.B16, V17.B16, V17.B16

sq82loop:
	FMOVS.P 4(R0), F2 // row 0 codes
	FMOVS.P 4(R1), F3 // row 1 codes
	VUSHLL $0, V2.B8, V2.H8
	VUSHLL $0, V2.H4, V2.S4
	VUSHLL $0, V3.B8, V3.H8
	VUSHLL $0, V3.H4, V3.S4
	WORD $0x6e21d842 // ucvtf v2.4s, v2.4s
	WORD $0x6e21d863 // ucvtf v3.4s, v3.4s
	VLD1.P 16(R4), [V4.S4] // scale
	WORD $0x6e24dc42 // fmul v2.4s, v2.4s, v4.4s
	WORD $0x6e24dc63 // fmul v3.4s, v3.4s, v4.4s
	VLD1.P 16(R3), [V5.S4] // min
	WORD $0x4e25d442 // fadd v2.4s, v2.4s, v5.4s
	WORD $0x4e25d463 // fadd v3.4s, v3.4s, v5.4s
	VLD1.P 16(R2), [V6.S4] // q
	WORD $0x0e6178d2 // fcvtl  v18.2d, v6.2s  (q lanes 0,1)
	WORD $0x4e6178d3 // fcvtl2 v19.2d, v6.4s  (q lanes 2,3)
	WORD $0x0e617847 // fcvtl  v7.2d, v2.2s
	WORD $0x4e617854 // fcvtl2 v20.2d, v2.4s
	WORD $0x0e617875 // fcvtl  v21.2d, v3.2s
	WORD $0x4e617876 // fcvtl2 v22.2d, v3.4s
	WORD $0x4ef2d4e7 // fsub v7.2d, v7.2d, v18.2d
	WORD $0x4ef3d694 // fsub v20.2d, v20.2d, v19.2d
	WORD $0x4ef2d6b5 // fsub v21.2d, v21.2d, v18.2d
	WORD $0x4ef3d6d6 // fsub v22.2d, v22.2d, v19.2d
	WORD $0x6e67dce7 // fmul v7.2d, v7.2d, v7.2d
	WORD $0x6e74de94 // fmul v20.2d, v20.2d, v20.2d
	WORD $0x6e75deb5 // fmul v21.2d, v21.2d, v21.2d
	WORD $0x6e76ded6 // fmul v22.2d, v22.2d, v22.2d
	WORD $0x4e67d400 // fadd v0.2d, v0.2d, v7.2d
	WORD $0x4e74d421 // fadd v1.2d, v1.2d, v20.2d
	WORD $0x4e75d610 // fadd v16.2d, v16.2d, v21.2d
	WORD $0x4e76d631 // fadd v17.2d, v17.2d, v22.2d
	SUBS $1, R5, R5
	BNE  sq82loop

	VST1.P [V0.D2, V1.D2], 32(R6)
	VST1 [V16.D2, V17.D2], (R6)
	RET

// func prefetchN(ps *unsafe.Pointer, n int)
TEXT ·prefetchN(SB), NOSPLIT, $0-16
	MOVD ps+0(FP), R0
	MOVD n+8(FP), R1

pfnloop:
	MOVD.P 8(R0), R2
	PRFM (R2), PLDL1KEEP
	SUBS $1, R1, R1
	BNE  pfnloop
	RET
