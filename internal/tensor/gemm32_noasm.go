//go:build !amd64

package tensor

// hasGemmAsm: no assembly kernels on this architecture; GemmF32 and GeluF32
// always run their portable scalar code.
func hasGemmAsm() bool { return false }

// gemmF32Asm is never called when hasGemmAsm reports false; the stub keeps
// the dispatch site portable.
func gemmF32Asm(dst, wT, bias, x *float32, rows, in, out int) {
	panic("tensor: gemmF32Asm called without assembly support")
}

// geluF32Asm: as gemmF32Asm, never called.
func geluF32Asm(x *float32, n int) {
	panic("tensor: geluF32Asm called without assembly support")
}
