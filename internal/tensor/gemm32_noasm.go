//go:build !amd64

package tensor

// hasGemmAsm: no assembly kernel on this architecture; GemmF32 always runs
// the portable scalar kernel.
func hasGemmAsm() bool { return false }

// gemmF32Asm is never called when hasGemmAsm reports false; the stub keeps
// the dispatch site portable.
func gemmF32Asm(dst, wT, bias, x *float32, rows, in, out int) {
	panic("tensor: gemmF32Asm called without assembly support")
}
