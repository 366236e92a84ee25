// AVX2 kernel for the float32 GELU of the F32 decoder (see gelu32.go for the
// contract): eight elements per iteration through exactly the scalar
// gelu32/tanh32 operation sequence. Every arithmetic instruction is one
// source-level multiply, add or divide — VMULPS/VADDPS/VDIVPS, no FMA — so
// each lane rounds where the scalar code rounds.

#include "textflag.h"

// Rows of ·geluConsts (32 bytes each).
#define K     0
#define C     32
#define CLAMP 64
#define NCLMP 96
#define A13   128
#define A11   160
#define A9    192
#define A7    224
#define A5    256
#define A3    288
#define A1    320
#define B6    352
#define B4    384
#define B2    416
#define B0    448
#define ONE   480
#define HALF  512

// func geluF32Asm(x *float32, n int)
//
// x[i] = 0.5*x[i] * (1 + tanh32(c*(x[i] + k*x[i]*x[i]*x[i]))) for i in [0, n);
// n must be a positive multiple of 8.
TEXT ·geluF32Asm(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	LEAQ ·geluConsts(SB), SI
	VMOVUPS CLAMP(SI), Y14
	VMOVUPS NCLMP(SI), Y15
loop:
	VMOVUPS (DI), Y0        // x
	VMULPS K(SI), Y0, Y1    // k*x
	VMULPS Y0, Y1, Y1       // *x
	VMULPS Y0, Y1, Y1       // *x
	VADDPS Y1, Y0, Y1       // x + k*x*x*x
	VMULPS C(SI), Y1, Y1    // u = c*(...)

	// tanh32(u). The clamp keeps u as the second source of MIN/MAX, the
	// operand they return when either is NaN — as the scalar comparisons,
	// both false on NaN, leave it alone.
	VMINPS Y1, Y14, Y1      // u > clamp → clamp
	VMAXPS Y1, Y15, Y1      // u < -clamp → -clamp
	VMULPS Y1, Y1, Y2       // u2
	VMULPS A13(SI), Y2, Y3
	VADDPS A11(SI), Y3, Y3
	VMULPS Y2, Y3, Y3
	VADDPS A9(SI), Y3, Y3
	VMULPS Y2, Y3, Y3
	VADDPS A7(SI), Y3, Y3
	VMULPS Y2, Y3, Y3
	VADDPS A5(SI), Y3, Y3
	VMULPS Y2, Y3, Y3
	VADDPS A3(SI), Y3, Y3
	VMULPS Y2, Y3, Y3
	VADDPS A1(SI), Y3, Y3
	VMULPS Y1, Y3, Y3       // p = u * (a1 + u2*(...))
	VMULPS B6(SI), Y2, Y4
	VADDPS B4(SI), Y4, Y4
	VMULPS Y2, Y4, Y4
	VADDPS B2(SI), Y4, Y4
	VMULPS Y2, Y4, Y4
	VADDPS B0(SI), Y4, Y4   // q = b0 + u2*(...)
	VDIVPS Y4, Y3, Y3       // tanh = p / q

	VADDPS ONE(SI), Y3, Y3  // 1 + tanh
	VMULPS HALF(SI), Y0, Y0 // 0.5*x
	VMULPS Y3, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	SUBQ $8, CX
	JNZ  loop
	VZEROUPPER
	RET
