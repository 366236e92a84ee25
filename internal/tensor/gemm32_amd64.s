// AVX2+FMA kernel for the multi-row float32 GEMM of the F32 decoder (see
// gemm32.go for the dispatch contract). Input rows go through two at a time:
// a transposed weight row's 8-lane chunks are loaded into registers once and
// multiplied into both rows' accumulators — eight independent FMA chains in
// flight instead of four, half the weight loads. Each (row, output) pair
// keeps its own four accumulator registers and its own fixed combine order,
// so results are deterministic and do not depend on which row shares the
// pair; an odd last row runs the same reduction on its own.

#include "textflag.h"

// func cpuHasAVX2FMA() bool
//
// One-shot feature probe: FMA + AVX + OSXSAVE (CPUID leaf 1), OS-enabled
// XMM/YMM state (XCR0 via XGETBV), and AVX2 (leaf 7). Matches the probe
// order of golang.org/x/sys/cpu without importing it.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	// Leaf 0: the CPU must implement leaf 7 at all.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no

	// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18001000, R8
	CMPL R8, $0x18001000
	JNE  no

	// XCR0: the OS must context-switch XMM (bit 1) and YMM (bit 2) state.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	// Leaf 7 subleaf 0 EBX: AVX2 (bit 5).
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JEQ  no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func gemmF32Asm(dst, wT, bias, x *float32, rows, in, out int)
//
// dst[r*out+j] = bias[j] + sum_i x[r*in+i] * wT[j*in+i]
//
// Loop nest: weight rows (j) outer, input rows (r) inner in pairs — a weight
// row is fetched once from cache/memory and reused for every input row of
// the group, which is the cross-row amortization row packing exists for.
// The reduction per (r, j) uses four 8-lane FMA accumulators over 32-element
// chunks (Y0–Y3 for the pair's first row, Y4–Y7 for its second, against the
// weight chunks in Y8–Y11), an 8-element cleanup loop into the first
// accumulator, a pairwise + horizontal tree combine, then a scalar tail —
// all in a fixed order that is the same in the pair body and the single-row
// body the last row of an odd count falls through to.
TEXT ·gemmF32Asm(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ wT+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ rows+32(FP), R10
	MOVQ in+40(FP), R11
	MOVQ out+48(FP), R12

	MOVQ R11, R13
	SHLQ $2, R13            // R13 = in*4, the byte stride of wT and x rows

	XORQ R14, R14           // j = 0
jloop:
	CMPQ R14, R12
	JGE  done
	VMOVSS (R8)(R14*4), X12 // bias[j]
	MOVQ x+24(FP), DX       // x row cursor = &x[0]
	XORQ R15, R15           // r = 0
rloop:
	LEAQ 2(R15), AX
	CMPQ AX, R10
	JGT  rlast             // fewer than two rows left

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ DX, AX             // x cursor, first row of the pair
	LEAQ (DX)(R13*1), R9    // x cursor, second row
	MOVQ SI, BX             // wT row cursor
	MOVQ R11, CX            // remaining reduction length
p32:
	CMPQ CX, $32
	JLT  p8
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VMOVUPS 64(BX), Y10
	VMOVUPS 96(BX), Y11
	VFMADD231PS (AX), Y8, Y0
	VFMADD231PS 32(AX), Y9, Y1
	VFMADD231PS 64(AX), Y10, Y2
	VFMADD231PS 96(AX), Y11, Y3
	VFMADD231PS (R9), Y8, Y4
	VFMADD231PS 32(R9), Y9, Y5
	VFMADD231PS 64(R9), Y10, Y6
	VFMADD231PS 96(R9), Y11, Y7
	ADDQ $128, AX
	ADDQ $128, R9
	ADDQ $128, BX
	SUBQ $32, CX
	JMP  p32
p8:
	CMPQ CX, $8
	JLT  preduce
	VMOVUPS (BX), Y8
	VFMADD231PS (AX), Y8, Y0
	VFMADD231PS (R9), Y8, Y4
	ADDQ $32, AX
	ADDQ $32, R9
	ADDQ $32, BX
	SUBQ $8, CX
	JMP  p8
preduce:
	// Per row: pairwise accumulator combine, then an 8-lane horizontal
	// tree sum.
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y6, Y4, Y4
	VEXTRACTF128 $1, Y4, X5
	VADDPS X5, X4, X4
	VHADDPS X4, X4, X4
	VHADDPS X4, X4, X4
ptail:
	CMPQ CX, $0
	JEQ  pstore
	VMOVSS (BX), X8
	VFMADD231SS (AX), X8, X0
	VFMADD231SS (R9), X8, X4
	ADDQ $4, AX
	ADDQ $4, R9
	ADDQ $4, BX
	DECQ CX
	JMP  ptail
pstore:
	VADDSS X12, X0, X0
	VADDSS X12, X4, X4
	MOVQ R15, AX            // dst index r*out + j
	IMULQ R12, AX
	ADDQ R14, AX
	VMOVSS X0, (DI)(AX*4)
	ADDQ R12, AX            // (r+1)*out + j
	VMOVSS X4, (DI)(AX*4)
	LEAQ (DX)(R13*2), DX    // next pair of x rows
	ADDQ $2, R15
	JMP  rloop
rlast:
	CMPQ R15, R10
	JGE  rdone

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ DX, AX             // x cursor
	MOVQ SI, BX             // wT row cursor
	MOVQ R11, CX            // remaining reduction length
i32:
	CMPQ CX, $32
	JLT  i8
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VMOVUPS 64(BX), Y10
	VMOVUPS 96(BX), Y11
	VFMADD231PS (AX), Y8, Y0
	VFMADD231PS 32(AX), Y9, Y1
	VFMADD231PS 64(AX), Y10, Y2
	VFMADD231PS 96(AX), Y11, Y3
	ADDQ $128, AX
	ADDQ $128, BX
	SUBQ $32, CX
	JMP  i32
i8:
	CMPQ CX, $8
	JLT  reduce
	VMOVUPS (BX), Y8
	VFMADD231PS (AX), Y8, Y0
	ADDQ $32, AX
	ADDQ $32, BX
	SUBQ $8, CX
	JMP  i8
reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
tail:
	CMPQ CX, $0
	JEQ  store
	VMOVSS (BX), X8
	VFMADD231SS (AX), X8, X0
	ADDQ $4, AX
	ADDQ $4, BX
	DECQ CX
	JMP  tail
store:
	VADDSS X12, X0, X0
	MOVQ R15, AX            // dst index r*out + j
	IMULQ R12, AX
	ADDQ R14, AX
	VMOVSS X0, (DI)(AX*4)
rdone:
	ADDQ R13, SI            // next wT row
	INCQ R14
	JMP  jloop
done:
	VZEROUPPER
	RET
