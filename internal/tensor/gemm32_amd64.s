// AVX2+FMA and AVX-512F tiles of the multi-row float32 GEMM of the F32
// decoder (see gemm32.go for the packed-panel layout and the dispatch). Each
// tile is an outer product: per input i it loads one panel row of weights and
// broadcasts one x value per row, and every output lane runs the same chain,
// acc = 0, acc = fma(x_i, w_i, acc) for i = 0 … in-1, then acc + bias. There
// are no horizontal reductions, so the chain — and the result — is the same
// whichever tile computes an output, at either vector width: the ZMM tiles
// keep the YMM tiles' operand order, lane for lane.
//
// The tiles, rows × outputs: AVX2 4×16, 1×64 (then 1×16) and the masked
// 8-lane tile for panels 8 wide or narrower; AVX-512F 8×32 and 4×32 over
// pairs of 16-wide panels, 3×64 for two or three leftover rows over panels
// in fours, and 1×128 (then 1×16) for one.

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

// func cpuHasAVX512F() bool
//
// One-shot probe for the ZMM tiles: AVX-512 Foundation (CPUID leaf 7 EBX
// bit 16) with the OS context-switching every register it touches — XCR0
// bits 1, 2 (XMM, YMM), 5 (opmask), 6 (ZMM_Hi256) and 7 (Hi16_ZMM).
// OSXSAVE (leaf 1 ECX bit 27) is checked first: XGETBV faults without it.
TEXT ·cpuHasAVX512F(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no512

	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX
	JEQ  no512

	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE  no512

	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x10000, BX
	JEQ  no512

	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET

// func gemm4x16F32(dst, w, bias, x *float32, quads, in, out, panels int)
//
// Rows 0 … 4*quads-1 against the first panels 16-wide panels. Panels outer,
// 4-row tiles inner: a panel is fetched once and reused by every tile. The
// tile's accumulators are Y0–Y7 (row r, outputs 0–7 / 8–15 in Y2r / Y2r+1);
// per input the panel row is two loads (Y8, Y9) and the four x values four
// broadcasts — 6 loads per 8 FMAs.
TEXT ·gemm4x16F32(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ in+40(FP), R13
	SHLQ $2, R13            // R13 = in*4: x row stride, bytes
	MOVQ out+48(FP), R12
	SHLQ $2, R12            // R12 = out*4: dst row stride, bytes
	MOVQ panels+56(FP), R15

panel:
	MOVQ x+24(FP), AX       // x row 0 of the tile
	MOVQ DI, R9             // dst row 0 of the tile, at this panel's column
	MOVQ quads+32(FP), R14

tile:
	LEAQ (AX)(R13*1), BX    // x rows 1, 2, 3
	LEAQ (AX)(R13*2), CX
	LEAQ (BX)(R13*2), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, R10            // panel row cursor
	XORQ R11, R11           // x byte offset, i*4

k4:
	VMOVUPS (R10), Y8
	VMOVUPS 32(R10), Y9
	VBROADCASTSS (AX)(R11*1), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (BX)(R11*1), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS (CX)(R11*1), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VBROADCASTSS (DX)(R11*1), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	ADDQ $64, R10
	ADDQ $4, R11
	CMPQ R11, R13
	JLT  k4

	VMOVUPS (R8), Y8
	VMOVUPS 32(R8), Y9
	VADDPS Y8, Y0, Y0
	VADDPS Y9, Y1, Y1
	VADDPS Y8, Y2, Y2
	VADDPS Y9, Y3, Y3
	VADDPS Y8, Y4, Y4
	VADDPS Y9, Y5, Y5
	VADDPS Y8, Y6, Y6
	VADDPS Y9, Y7, Y7
	MOVQ R9, R10
	VMOVUPS Y0, (R10)
	VMOVUPS Y1, 32(R10)
	ADDQ R12, R10
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, 32(R10)
	ADDQ R12, R10
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	ADDQ R12, R10
	VMOVUPS Y6, (R10)
	VMOVUPS Y7, 32(R10)

	LEAQ (R9)(R12*4), R9    // next tile: four rows down
	LEAQ (AX)(R13*4), AX
	DECQ R14
	JNZ  tile

	ADDQ $64, DI            // next panel: 16 outputs right
	ADDQ $64, R8
	MOVQ R13, R10
	SHLQ $4, R10
	ADDQ R10, SI            // a panel is in*16 floats
	DECQ R15
	JNZ  panel

	VZEROUPPER
	RET

// func gemm1x64F32(dst, w, bias, x *float32, in, panels int)
//
// One row against the first panels 16-wide panels: four panels at a time
// (a 1×64 tile, Y0–Y7, 8 loads + 1 broadcast per 8 FMAs), then the rest one
// panel at a time (Y0–Y1).
TEXT ·gemm1x64F32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ x+24(FP), AX
	MOVQ in+32(FP), R13
	SHLQ $2, R13            // R13 = in*4
	MOVQ R13, R12
	SHLQ $4, R12            // R12 = in*64: panel size, bytes
	MOVQ panels+40(FP), R15

group:
	CMPQ R15, $4
	JLT  single
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, R10            // panel 0 row cursor (panels 1, 2 at +R12, +2*R12)
	LEAQ (SI)(R12*2), R9
	ADDQ R12, R9            // panel 3 row cursor
	XORQ R11, R11

k64:
	VBROADCASTSS (AX)(R11*1), Y8
	VFMADD231PS (R10), Y8, Y0
	VFMADD231PS 32(R10), Y8, Y1
	VFMADD231PS (R10)(R12*1), Y8, Y2
	VFMADD231PS 32(R10)(R12*1), Y8, Y3
	VFMADD231PS (R10)(R12*2), Y8, Y4
	VFMADD231PS 32(R10)(R12*2), Y8, Y5
	VFMADD231PS (R9), Y8, Y6
	VFMADD231PS 32(R9), Y8, Y7
	ADDQ $64, R10
	ADDQ $64, R9
	ADDQ $4, R11
	CMPQ R11, R13
	JLT  k64

	VADDPS (R8), Y0, Y0
	VADDPS 32(R8), Y1, Y1
	VADDPS 64(R8), Y2, Y2
	VADDPS 96(R8), Y3, Y3
	VADDPS 128(R8), Y4, Y4
	VADDPS 160(R8), Y5, Y5
	VADDPS 192(R8), Y6, Y6
	VADDPS 224(R8), Y7, Y7
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, R8
	LEAQ (SI)(R12*4), SI
	SUBQ $4, R15
	JMP  group

single:
	TESTQ R15, R15
	JEQ   done
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ SI, R10
	XORQ R11, R11

k16:
	VBROADCASTSS (AX)(R11*1), Y8
	VFMADD231PS (R10), Y8, Y0
	VFMADD231PS 32(R10), Y8, Y1
	ADDQ $64, R10
	ADDQ $4, R11
	CMPQ R11, R13
	JLT  k16

	VADDPS (R8), Y0, Y0
	VADDPS 32(R8), Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ R12, SI
	DECQ R15
	JMP  single

done:
	VZEROUPPER
	RET

// func gemm4x32F32(dst, w, bias, x *float32, quads, in, out, pairs int)
//
// AVX-512F. Rows 0 … 4*quads-1 against the first 2*pairs 16-wide panels, two
// panels at a time: gemm4x16F32's loops with a 16-wide panel row in one ZMM.
// The tile's accumulators are Z0–Z7 (row r, panels 0 / 1 in Z2r / Z2r+1);
// per input the two panel rows are two loads (Z8, Z9) and the four x values
// four broadcasts — 6 loads per 8 FMAs, each FMA 16 lanes wide.
TEXT ·gemm4x32F32(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ in+40(FP), R13
	SHLQ $2, R13            // R13 = in*4: x row stride, bytes
	MOVQ R13, R12
	SHLQ $4, R12            // R12 = in*64: panel size, bytes
	MOVQ pairs+56(FP), R15

pair:
	MOVQ x+24(FP), AX       // x row 0 of the tile
	MOVQ DI, R9             // dst row 0 of the tile, at this pair's column
	MOVQ quads+32(FP), R14

tile32:
	LEAQ (AX)(R13*1), BX    // x rows 1, 2, 3
	LEAQ (AX)(R13*2), CX
	LEAQ (BX)(R13*2), DX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ SI, R10            // panel row cursor (the second panel at +R12)
	XORQ R11, R11           // x byte offset, i*4

k4x32:
	VMOVUPS (R10), Z8
	VMOVUPS (R10)(R12*1), Z9
	VBROADCASTSS (AX)(R11*1), Z10
	VFMADD231PS Z8, Z10, Z0
	VFMADD231PS Z9, Z10, Z1
	VBROADCASTSS (BX)(R11*1), Z11
	VFMADD231PS Z8, Z11, Z2
	VFMADD231PS Z9, Z11, Z3
	VBROADCASTSS (CX)(R11*1), Z12
	VFMADD231PS Z8, Z12, Z4
	VFMADD231PS Z9, Z12, Z5
	VBROADCASTSS (DX)(R11*1), Z13
	VFMADD231PS Z8, Z13, Z6
	VFMADD231PS Z9, Z13, Z7
	ADDQ $64, R10
	ADDQ $4, R11
	CMPQ R11, R13
	JLT  k4x32

	VMOVUPS (R8), Z8
	VMOVUPS 64(R8), Z9
	VADDPS Z8, Z0, Z0
	VADDPS Z9, Z1, Z1
	VADDPS Z8, Z2, Z2
	VADDPS Z9, Z3, Z3
	VADDPS Z8, Z4, Z4
	VADDPS Z9, Z5, Z5
	VADDPS Z8, Z6, Z6
	VADDPS Z9, Z7, Z7
	MOVQ out+48(FP), R11
	SHLQ $2, R11            // R11 = out*4: dst row stride, bytes
	MOVQ R9, R10
	VMOVUPS Z0, (R10)
	VMOVUPS Z1, 64(R10)
	ADDQ R11, R10
	VMOVUPS Z2, (R10)
	VMOVUPS Z3, 64(R10)
	ADDQ R11, R10
	VMOVUPS Z4, (R10)
	VMOVUPS Z5, 64(R10)
	ADDQ R11, R10
	VMOVUPS Z6, (R10)
	VMOVUPS Z7, 64(R10)

	LEAQ (R9)(R11*4), R9    // next tile: four rows down
	LEAQ (AX)(R13*4), AX
	DECQ R14
	JNZ  tile32

	ADDQ $128, DI           // next pair: 32 outputs right
	ADDQ $128, R8
	LEAQ (SI)(R12*2), SI
	DECQ R15
	JNZ  pair

	VZEROUPPER
	RET

// func gemm8x32F32(dst, w, bias, x *float32, octs, in, out, pairs int)
//
// AVX-512F. Rows 0 … 8*octs-1 against the first 2*pairs 16-wide panels, two
// panels at a time: gemm4x32F32's loops with twice the rows. The tile's
// accumulators are Z0–Z15 (row r, panels 0 / 1 in Z2r / Z2r+1); per input
// the two panel rows are two loads (Z16, Z17) and the eight x values eight
// broadcasts — 10 loads per 16 FMAs. The x rows are reached from three
// pointers, rows 0–2 from AX, 3–5 from BX and 6–7 from CX (each plus 0, 1
// or 2 row strides), which step one input at a time.
TEXT ·gemm8x32F32(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ in+40(FP), R13
	SHLQ $2, R13            // R13 = in*4: x row stride, bytes
	MOVQ R13, R12
	SHLQ $4, R12            // R12 = in*64: panel size, bytes
	MOVQ out+48(FP), DX
	SHLQ $2, DX             // DX = out*4: dst row stride, bytes
	MOVQ pairs+56(FP), R15

pair8:
	MOVQ x+24(FP), AX       // x row 0 of the tile
	MOVQ DI, R9             // dst row 0 of the tile, at this pair's column
	MOVQ octs+32(FP), R14

tile8:
	LEAQ (AX)(R13*2), BX
	ADDQ R13, BX            // x row 3
	LEAQ (BX)(R13*2), CX
	ADDQ R13, CX            // x row 6
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	MOVQ SI, R10            // panel row cursor (the second panel at +R12)
	MOVQ in+40(FP), R11     // inputs left

k8x32:
	VMOVUPS (R10), Z16
	VMOVUPS (R10)(R12*1), Z17
	VBROADCASTSS (AX), Z18
	VFMADD231PS Z16, Z18, Z0
	VFMADD231PS Z17, Z18, Z1
	VBROADCASTSS (AX)(R13*1), Z19
	VFMADD231PS Z16, Z19, Z2
	VFMADD231PS Z17, Z19, Z3
	VBROADCASTSS (AX)(R13*2), Z20
	VFMADD231PS Z16, Z20, Z4
	VFMADD231PS Z17, Z20, Z5
	VBROADCASTSS (BX), Z21
	VFMADD231PS Z16, Z21, Z6
	VFMADD231PS Z17, Z21, Z7
	VBROADCASTSS (BX)(R13*1), Z22
	VFMADD231PS Z16, Z22, Z8
	VFMADD231PS Z17, Z22, Z9
	VBROADCASTSS (BX)(R13*2), Z23
	VFMADD231PS Z16, Z23, Z10
	VFMADD231PS Z17, Z23, Z11
	VBROADCASTSS (CX), Z24
	VFMADD231PS Z16, Z24, Z12
	VFMADD231PS Z17, Z24, Z13
	VBROADCASTSS (CX)(R13*1), Z25
	VFMADD231PS Z16, Z25, Z14
	VFMADD231PS Z17, Z25, Z15
	ADDQ $64, R10
	ADDQ $4, AX
	ADDQ $4, BX
	ADDQ $4, CX
	DECQ R11
	JNZ  k8x32

	VMOVUPS (R8), Z16
	VMOVUPS 64(R8), Z17
	VADDPS Z16, Z0, Z0
	VADDPS Z17, Z1, Z1
	VADDPS Z16, Z2, Z2
	VADDPS Z17, Z3, Z3
	VADDPS Z16, Z4, Z4
	VADDPS Z17, Z5, Z5
	VADDPS Z16, Z6, Z6
	VADDPS Z17, Z7, Z7
	VADDPS Z16, Z8, Z8
	VADDPS Z17, Z9, Z9
	VADDPS Z16, Z10, Z10
	VADDPS Z17, Z11, Z11
	VADDPS Z16, Z12, Z12
	VADDPS Z17, Z13, Z13
	VADDPS Z16, Z14, Z14
	VADDPS Z17, Z15, Z15
	MOVQ R9, R10
	VMOVUPS Z0, (R10)
	VMOVUPS Z1, 64(R10)
	ADDQ DX, R10
	VMOVUPS Z2, (R10)
	VMOVUPS Z3, 64(R10)
	ADDQ DX, R10
	VMOVUPS Z4, (R10)
	VMOVUPS Z5, 64(R10)
	ADDQ DX, R10
	VMOVUPS Z6, (R10)
	VMOVUPS Z7, 64(R10)
	ADDQ DX, R10
	VMOVUPS Z8, (R10)
	VMOVUPS Z9, 64(R10)
	ADDQ DX, R10
	VMOVUPS Z10, (R10)
	VMOVUPS Z11, 64(R10)
	ADDQ DX, R10
	VMOVUPS Z12, (R10)
	VMOVUPS Z13, 64(R10)
	ADDQ DX, R10
	VMOVUPS Z14, (R10)
	VMOVUPS Z15, 64(R10)

	LEAQ (AX)(R13*8), AX    // next tile: AX is x row 0 plus one input, so
	SUBQ R13, AX            // seven rows on from it
	LEAQ (R9)(DX*8), R9     // and eight dst rows down
	DECQ R14
	JNZ  tile8

	ADDQ $128, DI           // next pair: 32 outputs right
	ADDQ $128, R8
	LEAQ (SI)(R12*2), SI
	DECQ R15
	JNZ  pair8

	VZEROUPPER
	RET

// func gemm3x64F32(dst, w, bias, x *float32, rows, in, out, quads int)
//
// AVX-512F. rows (2 or 3) rows against the first 4*quads 16-wide panels, four
// panels at a time: one pass over the weights for all the rows, where
// gemm1x128F32 makes one per row. The tile's accumulators are Z0–Z11 (row r,
// panel p in Z4r+p); per input the four panel rows are four loads (Z12–Z15)
// and the three x values three broadcasts — 7 loads per 12 FMAs. With two
// rows the third re-reads row 1 and is not stored.
TEXT ·gemm3x64F32(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ x+24(FP), AX       // x row 0
	MOVQ rows+32(FP), R14
	MOVQ in+40(FP), R13
	SHLQ $2, R13            // R13 = in*4: x row stride, bytes
	LEAQ (AX)(R13*1), BX    // x row 1
	MOVQ BX, CX             // x row 2, or row 1 again for two rows
	CMPQ R14, $3
	JLT  strides3
	ADDQ R13, CX

strides3:
	MOVQ R13, R12
	SHLQ $4, R12            // R12 = in*64: panel size, bytes
	MOVQ out+48(FP), DX
	SHLQ $2, DX             // DX = out*4: dst row stride, bytes
	MOVQ quads+56(FP), R15

group3:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	MOVQ SI, R10            // panels 0, 1, 2 at +0, +R12, +2*R12
	LEAQ (SI)(R12*2), R9
	ADDQ R12, R9            // panel 3
	XORQ R11, R11           // x byte offset, i*4

k3x64:
	VMOVUPS (R10), Z12
	VMOVUPS (R10)(R12*1), Z13
	VMOVUPS (R10)(R12*2), Z14
	VMOVUPS (R9), Z15
	VBROADCASTSS (AX)(R11*1), Z16
	VFMADD231PS Z12, Z16, Z0
	VFMADD231PS Z13, Z16, Z1
	VFMADD231PS Z14, Z16, Z2
	VFMADD231PS Z15, Z16, Z3
	VBROADCASTSS (BX)(R11*1), Z17
	VFMADD231PS Z12, Z17, Z4
	VFMADD231PS Z13, Z17, Z5
	VFMADD231PS Z14, Z17, Z6
	VFMADD231PS Z15, Z17, Z7
	VBROADCASTSS (CX)(R11*1), Z18
	VFMADD231PS Z12, Z18, Z8
	VFMADD231PS Z13, Z18, Z9
	VFMADD231PS Z14, Z18, Z10
	VFMADD231PS Z15, Z18, Z11
	ADDQ $64, R10
	ADDQ $64, R9
	ADDQ $4, R11
	CMPQ R11, R13
	JLT  k3x64

	VMOVUPS (R8), Z12
	VMOVUPS 64(R8), Z13
	VMOVUPS 128(R8), Z14
	VMOVUPS 192(R8), Z15
	VADDPS Z12, Z0, Z0
	VADDPS Z13, Z1, Z1
	VADDPS Z14, Z2, Z2
	VADDPS Z15, Z3, Z3
	VADDPS Z12, Z4, Z4
	VADDPS Z13, Z5, Z5
	VADDPS Z14, Z6, Z6
	VADDPS Z15, Z7, Z7
	VADDPS Z12, Z8, Z8
	VADDPS Z13, Z9, Z9
	VADDPS Z14, Z10, Z10
	VADDPS Z15, Z11, Z11
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, (DI)(DX*1)
	VMOVUPS Z5, 64(DI)(DX*1)
	VMOVUPS Z6, 128(DI)(DX*1)
	VMOVUPS Z7, 192(DI)(DX*1)
	CMPQ R14, $3
	JLT  next3
	VMOVUPS Z8, (DI)(DX*2)
	VMOVUPS Z9, 64(DI)(DX*2)
	VMOVUPS Z10, 128(DI)(DX*2)
	VMOVUPS Z11, 192(DI)(DX*2)

next3:
	ADDQ $256, DI           // next four panels: 64 outputs right
	ADDQ $256, R8
	LEAQ (SI)(R12*4), SI
	DECQ R15
	JNZ  group3

	VZEROUPPER
	RET

// func gemm1x128F32(dst, w, bias, x *float32, in, panels int)
//
// AVX-512F. One row against the first panels 16-wide panels: eight panels at
// a time (a 1×128 tile, Z0–Z7, 8 loads + 1 broadcast per 8 FMAs), then the
// rest one panel at a time (Z0).
TEXT ·gemm1x128F32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ bias+16(FP), R8
	MOVQ x+24(FP), AX
	MOVQ in+32(FP), R13
	SHLQ $2, R13            // R13 = in*4
	MOVQ R13, R12
	SHLQ $4, R12            // R12 = in*64: panel size, bytes
	MOVQ panels+40(FP), R15

group8:
	CMPQ R15, $8
	JLT  single16
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ SI, R10            // panels 0, 1, 2, 4 at +0, +R12, +2*R12, +4*R12
	LEAQ (SI)(R12*2), R9
	ADDQ R12, R9            // panels 3, 5, 7 at +0, +2*R12, +4*R12
	LEAQ (R9)(R12*2), BX
	ADDQ R12, BX            // panel 6
	XORQ R11, R11

k128:
	VBROADCASTSS (AX)(R11*1), Z8
	VFMADD231PS (R10), Z8, Z0
	VFMADD231PS (R10)(R12*1), Z8, Z1
	VFMADD231PS (R10)(R12*2), Z8, Z2
	VFMADD231PS (R9), Z8, Z3
	VFMADD231PS (R10)(R12*4), Z8, Z4
	VFMADD231PS (R9)(R12*2), Z8, Z5
	VFMADD231PS (BX), Z8, Z6
	VFMADD231PS (R9)(R12*4), Z8, Z7
	ADDQ $64, R10
	ADDQ $64, R9
	ADDQ $64, BX
	ADDQ $4, R11
	CMPQ R11, R13
	JLT  k128

	VADDPS (R8), Z0, Z0
	VADDPS 64(R8), Z1, Z1
	VADDPS 128(R8), Z2, Z2
	VADDPS 192(R8), Z3, Z3
	VADDPS 256(R8), Z4, Z4
	VADDPS 320(R8), Z5, Z5
	VADDPS 384(R8), Z6, Z6
	VADDPS 448(R8), Z7, Z7
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	ADDQ $512, DI
	ADDQ $512, R8
	LEAQ (SI)(R12*8), SI
	SUBQ $8, R15
	JMP  group8

single16:
	TESTQ R15, R15
	JEQ   done128
	VPXORD Z0, Z0, Z0
	MOVQ SI, R10
	XORQ R11, R11

k16x1:
	VBROADCASTSS (AX)(R11*1), Z8
	VFMADD231PS (R10), Z8, Z0
	ADDQ $64, R10
	ADDQ $4, R11
	CMPQ R11, R13
	JLT  k16x1

	VADDPS (R8), Z0, Z0
	VMOVUPS Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, R8
	ADDQ R12, SI
	DECQ R15
	JMP  single16

done128:
	VZEROUPPER
	RET

// func gemmMaskedF32(dst, w, bias, x *float32, rows, in, out, width int)
//
// All rows against one panel of width ≤ 8 (dst, w and bias already point at
// the panel's first output): masked loads of each width-float panel row and
// of the bias, four rows per pass (Y0–Y3) while four are left, then one
// (Y0), and masked stores.
TEXT ·gemmMaskedF32(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ x+24(FP), AX
	MOVQ rows+32(FP), R14
	MOVQ in+40(FP), R13
	SHLQ $2, R13            // R13 = in*4
	MOVQ out+48(FP), R12
	SHLQ $2, R12            // R12 = out*4
	MOVQ width+56(FP), R15
	LEAQ ·laneMask(SB), R9
	MOVQ $8, DX
	SUBQ R15, DX
	VMOVUPS (R9)(DX*4), Y15 // the first width lanes
	SHLQ $2, R15            // R15 = width*4: panel row stride, bytes
	MOVQ bias+16(FP), R8
	VMASKMOVPS (R8), Y15, Y14

quad:
	CMPQ R14, $4
	JLT  one
	LEAQ (AX)(R13*1), BX
	LEAQ (AX)(R13*2), CX
	LEAQ (BX)(R13*2), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, R10
	XORQ R11, R11

kq:
	VMASKMOVPS (R10), Y15, Y8
	VBROADCASTSS (AX)(R11*1), Y9
	VFMADD231PS Y8, Y9, Y0
	VBROADCASTSS (BX)(R11*1), Y10
	VFMADD231PS Y8, Y10, Y1
	VBROADCASTSS (CX)(R11*1), Y11
	VFMADD231PS Y8, Y11, Y2
	VBROADCASTSS (DX)(R11*1), Y12
	VFMADD231PS Y8, Y12, Y3
	ADDQ R15, R10
	ADDQ $4, R11
	CMPQ R11, R13
	JLT  kq

	VADDPS Y14, Y0, Y0
	VADDPS Y14, Y1, Y1
	VADDPS Y14, Y2, Y2
	VADDPS Y14, Y3, Y3
	MOVQ DI, R10
	VMASKMOVPS Y0, Y15, (R10)
	ADDQ R12, R10
	VMASKMOVPS Y1, Y15, (R10)
	ADDQ R12, R10
	VMASKMOVPS Y2, Y15, (R10)
	ADDQ R12, R10
	VMASKMOVPS Y3, Y15, (R10)
	LEAQ (DI)(R12*4), DI
	LEAQ (AX)(R13*4), AX
	SUBQ $4, R14
	JMP  quad

one:
	TESTQ R14, R14
	JEQ   mdone
	VXORPS Y0, Y0, Y0
	MOVQ SI, R10
	XORQ R11, R11

k1:
	VMASKMOVPS (R10), Y15, Y8
	VBROADCASTSS (AX)(R11*1), Y9
	VFMADD231PS Y8, Y9, Y0
	ADDQ R15, R10
	ADDQ $4, R11
	CMPQ R11, R13
	JLT  k1

	VADDPS Y14, Y0, Y0
	VMASKMOVPS Y0, Y15, (DI)
	ADDQ R12, DI
	ADDQ R13, AX
	DECQ R14
	JMP  one

mdone:
	VZEROUPPER
	RET
