//go:build amd64

package tensor

// hasGemmAsm reports whether this CPU can run the AVX2+FMA GEMM kernel.
// Detection is a one-shot CPUID/XGETBV probe (see gemm32_amd64.s): FMA, AVX
// and OSXSAVE from leaf 1, OS-enabled XMM+YMM state from XCR0, and AVX2 from
// leaf 7 — the exact feature set the kernel's VFMADD231PS/VMOVUPS mix needs.
func hasGemmAsm() bool { return cpuHasAVX2FMA() }

// cpuHasAVX2FMA is implemented in gemm32_amd64.s.
func cpuHasAVX2FMA() bool

// gemmF32Asm computes dst[r*out+j] = bias[j] + x[r*in:]·wT[j*in:] with the
// AVX2+FMA kernel. All slices must be fully in bounds (the GemmF32 wrapper
// hoists the checks); rows, in, out must be positive. The reduction order of
// a (row, output) pair — four 8-lane accumulators combined pairwise, then an
// 8-lane horizontal tree sum, scalar tail last — is fixed and the same for
// every row, paired or not, so results are deterministic.
//
//go:noescape
func gemmF32Asm(dst, wT, bias, x *float32, rows, in, out int)

// geluF32Asm applies gelu32 in place to x[0:n], eight lanes at a time; n must
// be a positive multiple of 8. Implemented in gelu32_amd64.s.
//
//go:noescape
func geluF32Asm(x *float32, n int)
