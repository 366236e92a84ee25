// AVX2+FMA kernel for one head of the F32 decoder's attention (see
// attend32.go for the contract): scores and their maximum, a vectorised
// float32 exp, and the normalised weighted value sum, in three passes over
// the head's slice of the cache.

#include "textflag.h"

// Rows of ·attendConsts (32 bytes each).
#define NEGINF 0
#define FLOOR  32
#define LOG2E  64
#define C1     96
#define C2     128
#define P0     160
#define P1     192
#define P2     224
#define P3     256
#define P4     288
#define P5     320
#define ONE    352
#define BIAS   384

// func attendHeadF32Asm(out, q, k, v *float32, stride, nPos, dh int, scale float32, scores *float32)
//
// Registers across the passes: DI scores, R9 ·laneMask, R10 ·attendConsts,
// R12 stride in bytes, R13 dh, R14 nPos.
TEXT ·attendHeadF32Asm(SB), NOSPLIT, $0-72
	MOVQ q+8(FP), R8
	MOVQ k+16(FP), SI
	MOVQ stride+32(FP), R12
	SHLQ $2, R12
	MOVQ nPos+40(FP), R14
	MOVQ dh+48(FP), R13
	MOVQ scores+64(FP), DI
	LEAQ ·attendConsts(SB), R10
	LEAQ ·laneMask(SB), R9

	// dh = 8*R15 + DX; Y15 selects the DX lanes of a head's last chunk.
	MOVQ R13, R15
	SHRQ $3, R15
	MOVQ R13, DX
	ANDQ $7, DX
	MOVQ $8, AX
	SUBQ DX, AX
	VMOVUPS (R9)(AX*4), Y15
	VMOVSS scale+56(FP), X13
	VMOVSS NEGINF(R10), X14  // running max

	// Pass 1: scores[t] = scale * q·k_t (lane-wise FMA chain over the head's
	// 8-float chunks, then an 8-lane tree sum), X14 = max_t scores[t].
	XORQ CX, CX

score:
	VXORPS Y0, Y0, Y0
	MOVQ R8, AX
	MOVQ SI, BX
	MOVQ R15, R11
	TESTQ R11, R11
	JEQ  scoretail

scorechunk:
	VMOVUPS (AX), Y1
	VFMADD231PS (BX), Y1, Y0
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ R11
	JNZ  scorechunk

scoretail:
	TESTQ DX, DX
	JEQ  scoresum
	VMASKMOVPS (AX), Y15, Y1
	VMASKMOVPS (BX), Y15, Y2
	VFMADD231PS Y2, Y1, Y0

scoresum:
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMULSS X13, X0, X0
	VMOVSS X0, (DI)(CX*4)
	VMAXSS X0, X14, X14
	ADDQ R12, SI
	INCQ CX
	CMPQ CX, R14
	JLT  score

	// Pass 2: scores[t] = exp(scores[t] - max), eight at a time (the last
	// chunk masked to nPos), Y13 = the lane-wise sum, then its tree sum
	// broadcast: the normaliser.
	VBROADCASTSS X14, Y14
	VXORPS Y13, Y13, Y13
	MOVQ DI, AX
	MOVQ R14, CX

expchunk:
	MOVQ $8, BX
	CMPQ CX, BX
	CMOVQLT CX, BX  // BX = min(8, positions left)
	MOVQ $8, R11
	SUBQ BX, R11
	VMOVUPS (R9)(R11*4), Y12
	VMASKMOVPS (AX), Y12, Y0
	VSUBPS Y14, Y0, Y0  // x = s - max ≤ 0

	// exp(x): n = round(x·log2 e), r = x − n·ln 2 (two parts),
	// e^r = 1 + r + r²·P(r), times 2^n built in the exponent bits.
	VMAXPS FLOOR(R10), Y0, Y0
	VMULPS LOG2E(R10), Y0, Y1
	VROUNDPS $0, Y1, Y1
	VFNMADD231PS C1(R10), Y1, Y0
	VFNMADD231PS C2(R10), Y1, Y0
	VMULPS Y0, Y0, Y2
	VMOVUPS P0(R10), Y3
	VFMADD213PS P1(R10), Y0, Y3
	VFMADD213PS P2(R10), Y0, Y3
	VFMADD213PS P3(R10), Y0, Y3
	VFMADD213PS P4(R10), Y0, Y3
	VFMADD213PS P5(R10), Y0, Y3
	VFMADD213PS Y0, Y2, Y3
	VADDPS ONE(R10), Y3, Y3
	VCVTPS2DQ Y1, Y1
	VPADDD BIAS(R10), Y1, Y1
	VPSLLD $23, Y1, Y1
	VMULPS Y1, Y3, Y0

	VANDPS Y12, Y0, Y0  // lanes past nPos add nothing
	VMASKMOVPS Y0, Y12, (AX)
	VADDPS Y0, Y13, Y13
	ADDQ $32, AX
	SUBQ $8, CX
	JGT  expchunk

	VEXTRACTF128 $1, Y13, X1
	VADDPS X1, X13, X13
	VHADDPS X13, X13, X13
	VHADDPS X13, X13, X13
	VBROADCASTSS X13, Y13

	// Pass 3: out = Σ_t p_t·v_t / normaliser, one FMA chain per lane in
	// position order: 32 lanes (Y0–Y3) per sweep while 32 are left, then 8
	// (the last chunk masked to dh).
	MOVQ out+0(FP), R8
	MOVQ v+24(FP), SI

wide:
	CMPQ R13, $32
	JLT  narrow
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, AX
	XORQ CX, CX

widepos:
	VBROADCASTSS (DI)(CX*4), Y4
	VFMADD231PS (AX), Y4, Y0
	VFMADD231PS 32(AX), Y4, Y1
	VFMADD231PS 64(AX), Y4, Y2
	VFMADD231PS 96(AX), Y4, Y3
	ADDQ R12, AX
	INCQ CX
	CMPQ CX, R14
	JLT  widepos

	VDIVPS Y13, Y0, Y0
	VDIVPS Y13, Y1, Y1
	VDIVPS Y13, Y2, Y2
	VDIVPS Y13, Y3, Y3
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 64(R8)
	VMOVUPS Y3, 96(R8)
	ADDQ $128, R8
	ADDQ $128, SI
	SUBQ $32, R13
	JMP  wide

narrow:
	TESTQ R13, R13
	JLE  done
	MOVQ $8, BX
	CMPQ R13, BX
	CMOVQLT R13, BX
	MOVQ $8, R11
	SUBQ BX, R11
	VMOVUPS (R9)(R11*4), Y12
	VXORPS Y0, Y0, Y0
	MOVQ SI, AX
	XORQ CX, CX

narrowpos:
	VBROADCASTSS (DI)(CX*4), Y4
	VMASKMOVPS (AX), Y12, Y5
	VFMADD231PS Y5, Y4, Y0
	ADDQ R12, AX
	INCQ CX
	CMPQ CX, R14
	JLT  narrowpos

	VDIVPS Y13, Y0, Y0
	VMASKMOVPS Y0, Y12, (R8)
	ADDQ $32, R8
	ADDQ $32, SI
	SUBQ $8, R13
	JMP  narrow

done:
	VZEROUPPER
	RET
