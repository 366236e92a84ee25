//go:build amd64

package tensor

// hasGemmAsm reports whether this CPU can run the AVX2+FMA kernels.
// Detection is a one-shot CPUID/XGETBV probe (see gemm32_amd64.s): FMA, AVX
// and OSXSAVE from leaf 1, OS-enabled XMM+YMM state from XCR0, and AVX2 from
// leaf 7 — the feature set the kernels' FMA, masked-move and integer-lane
// instructions need.
func hasGemmAsm() bool { return cpuHasAVX2FMA() }

// hasGemmZmm reports whether this CPU can also run the AVX-512F tiles: the
// AVX2 set (they share a GEMM with its odd-panel and masked tiles) plus
// AVX-512 Foundation with OS-enabled opmask and ZMM state.
func hasGemmZmm() bool { return cpuHasAVX2FMA() && cpuHasAVX512F() }

// cpuHasAVX2FMA and cpuHasAVX512F are implemented in gemm32_amd64.s.
func cpuHasAVX2FMA() bool
func cpuHasAVX512F() bool

// The GEMM tiles of gemm32_amd64.s (see gemmF32Tiles for how they cover a
// GEMM, gemm32.go for the chain every output runs). Pointers address the
// tile's first dst, weight, bias and x element; every count is positive and
// every access in bounds (GemmF32 hoists the checks).
//
// gemm4x16F32: rows 0 … 4*quads-1 × the first panels 16-wide panels.
//
//go:noescape
func gemm4x16F32(dst, w, bias, x *float32, quads, in, out, panels int)

// gemm4x32F32 (AVX-512F): rows 0 … 4*quads-1 × the first 2*pairs 16-wide
// panels.
//
//go:noescape
func gemm4x32F32(dst, w, bias, x *float32, quads, in, out, pairs int)

// gemm8x32F32 (AVX-512F): rows 0 … 8*octs-1 × the first 2*pairs 16-wide
// panels.
//
//go:noescape
func gemm8x32F32(dst, w, bias, x *float32, octs, in, out, pairs int)

// gemm3x64F32 (AVX-512F): rows 0 … rows-1, rows 2 or 3, × the first 4*quads
// 16-wide panels.
//
//go:noescape
func gemm3x64F32(dst, w, bias, x *float32, rows, in, out, quads int)

// gemm1x64F32: one row × the first panels 16-wide panels.
//
//go:noescape
func gemm1x64F32(dst, w, bias, x *float32, in, panels int)

// gemm1x128F32 (AVX-512F): one row × the first panels 16-wide panels.
//
//go:noescape
func gemm1x128F32(dst, w, bias, x *float32, in, panels int)

// gemmMaskedF32: rows rows × one panel of width 1 … 8.
//
//go:noescape
func gemmMaskedF32(dst, w, bias, x *float32, rows, in, out, width int)

// geluF32Asm applies gelu32 in place to x[0:n], eight lanes at a time; n must
// be a positive multiple of 8. Implemented in gelu32_amd64.s.
//
//go:noescape
func geluF32Asm(x *float32, n int)

// attendHeadF32Asm is one head of AttendF32 (attend32_amd64.s): out[0:dh] =
// Σ_t p_t·v_t / Σ_t p_t with p_t = exp(s_t − max s), s_t = scale·(q·k_t),
// over nPos positions whose keys and values start at k and v and repeat
// every stride floats; scores holds nPos floats of scratch.
//
//go:noescape
func attendHeadF32Asm(out, q, k, v *float32, stride, nPos, dh int, scale float32, scores *float32)
