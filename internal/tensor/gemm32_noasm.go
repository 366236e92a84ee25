//go:build !amd64

package tensor

// hasGemmAsm: no assembly kernels on this architecture; GemmF32, GeluF32 and
// AttendF32 always run their portable code.
func hasGemmAsm() bool { return false }

func hasGemmZmm() bool { return false }

// The assembly entry points are never called when hasGemmAsm reports false;
// the stubs keep the dispatch sites portable.

func gemm4x16F32(dst, w, bias, x *float32, quads, in, out, panels int) {
	panic("tensor: assembly kernel called without assembly support")
}

func gemm4x32F32(dst, w, bias, x *float32, quads, in, out, pairs int) {
	panic("tensor: assembly kernel called without assembly support")
}

func gemm8x32F32(dst, w, bias, x *float32, octs, in, out, pairs int) {
	panic("tensor: assembly kernel called without assembly support")
}

func gemm3x64F32(dst, w, bias, x *float32, rows, in, out, quads int) {
	panic("tensor: assembly kernel called without assembly support")
}

func gemm1x64F32(dst, w, bias, x *float32, in, panels int) {
	panic("tensor: assembly kernel called without assembly support")
}

func gemm1x128F32(dst, w, bias, x *float32, in, panels int) {
	panic("tensor: assembly kernel called without assembly support")
}

func gemmMaskedF32(dst, w, bias, x *float32, rows, in, out, width int) {
	panic("tensor: assembly kernel called without assembly support")
}

func geluF32Asm(x *float32, n int) {
	panic("tensor: assembly kernel called without assembly support")
}

func attendHeadF32Asm(out, q, k, v *float32, stride, nPos, dh int, scale float32, scores *float32) {
	panic("tensor: assembly kernel called without assembly support")
}
