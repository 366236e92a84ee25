// AVX2+FMA kernel for the multi-row float32 GEMM of the F32 decoder (see
// gemm32.go for the dispatch contract). The reduction runs 8 lanes wide with
// four independent accumulator registers — fixed order, so results are
// deterministic — and each transposed weight row is loaded once per
// input-row group iteration, staying L1-hot across the group's rows.

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
// Loop nest: weight rows (j) outer, input rows (r) inner — a weight row is
// fetched once from cache/memory and reused for every input row of the
// group, which is the cross-row amortization row packing exists for.
// The reduction per (r, j) uses four 8-lane FMA accumulators over 32-element
// chunks, an 8-element cleanup loop, a pairwise + horizontal tree combine,
// then a scalar tail — all in a fixed order.
TEXT ·gemmF32Asm(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ wT+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ x+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ in+40(FP), R11
	MOVQ out+48(FP), R12

	MOVQ R11, R13
	SHLQ $2, R13            // R13 = in*4, the byte stride of wT and x rows

	XORQ R14, R14           // j = 0
jloop:
	CMPQ R14, R12
	JGE  done
	VMOVSS (R8)(R14*4), X8  // bias[j]
	MOVQ R9, DX             // x row cursor = &x[0]
	XORQ R15, R15           // r = 0
rloop:
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
	VMOVUPS (AX), Y4
	VMOVUPS 32(AX), Y5
	VMOVUPS 64(AX), Y6
	VMOVUPS 96(AX), Y7
	VFMADD231PS (BX), Y4, Y0
	VFMADD231PS 32(BX), Y5, Y1
	VFMADD231PS 64(BX), Y6, Y2
	VFMADD231PS 96(BX), Y7, Y3
	ADDQ $128, AX
	ADDQ $128, BX
	SUBQ $32, CX
	JMP  i32
i8:
	CMPQ CX, $8
	JLT  reduce
	VMOVUPS (AX), Y4
	VFMADD231PS (BX), Y4, Y0
	ADDQ $32, AX
	ADDQ $32, BX
	SUBQ $8, CX
	JMP  i8
reduce:
	// Pairwise accumulator combine, then an 8-lane horizontal tree sum.
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
	VMOVSS (AX), X4
	VFMADD231SS (BX), X4, X0
	ADDQ $4, AX
	ADDQ $4, BX
	DECQ CX
	JMP  tail
store:
	VADDSS X8, X0, X0
	MOVQ R15, AX            // dst index r*out + j
	IMULQ R12, AX
	ADDQ R14, AX
	VMOVSS X0, (DI)(AX*4)
	ADDQ R13, DX            // next x row
	INCQ R15
	JMP  rloop
rdone:
	ADDQ R13, SI            // next wT row
	INCQ R14
	JMP  jloop
done:
	VZEROUPPER
	RET
