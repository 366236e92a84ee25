package tensor

// Float32 row kernels backing the CPT-GPT decode fast path: the attention
// dot/axpy, and the dot-product blocks of the portable GEMM (gemm32.go).
// They are scalar Go written for instruction-level parallelism (independent
// partial accumulators, contiguous panel access); their accumulation order
// is fixed, so results are deterministic for a given input regardless of the
// worker pool's degree — the same contract the float64 kernels keep.

// DotF32 returns the dot product of a and b over len(a) elements, b must be
// at least as long. Accumulation runs in eight independent partial sums
// (scalar FP add/mul chains are latency-bound, so independent accumulators
// are what keep the ports busy) combined pairwise at the end; the order is
// fixed, so the result is deterministic (though not equal to a
// single-accumulator reduction).
func DotF32(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
		s4 += a[i+4] * b[i+4]
		s5 += a[i+5] * b[i+5]
		s6 += a[i+6] * b[i+6]
		s7 += a[i+7] * b[i+7]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// Dot4F32 computes the dot products of x against four weight rows in one
// sweep — the 4-row register block of gemmF32Scalar. Each x element is loaded
// once for all four rows, and each row accumulates in two chains of paired
// multiply-adds (eight independent chains total), which is where the scalar
// FP ports saturate on this loop shape. The accumulation order is fixed, so
// results are deterministic.
func Dot4F32(x, w0, w1, w2, w3 []float32) (r0, r1, r2, r3 float32) {
	n := len(x)
	w0 = w0[:n]
	w1 = w1[:n]
	w2 = w2[:n]
	w3 = w3[:n]
	var a0, a1, b0, b1, c0, c1, d0, d1 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		a0 += x0*w0[i] + x2*w0[i+2]
		a1 += x1*w0[i+1] + x3*w0[i+3]
		b0 += x0*w1[i] + x2*w1[i+2]
		b1 += x1*w1[i+1] + x3*w1[i+3]
		c0 += x0*w2[i] + x2*w2[i+2]
		c1 += x1*w2[i+1] + x3*w2[i+3]
		d0 += x0*w3[i] + x2*w3[i+2]
		d1 += x1*w3[i+1] + x3*w3[i+3]
	}
	for ; i < n; i++ {
		a0 += x[i] * w0[i]
		b0 += x[i] * w1[i]
		c0 += x[i] * w2[i]
		d0 += x[i] * w3[i]
	}
	return a0 + a1, b0 + b1, c0 + c1, d0 + d1
}

// Dot2F32 computes the dot products of x against two weight rows in one
// sweep — the 2-row tail block of gemmF32Scalar. Each x element is loaded
// once for both rows, with four accumulator chains per row.
func Dot2F32(x, w0, w1 []float32) (r0, r1 float32) {
	n := len(x)
	w0 = w0[:n]
	w1 = w1[:n]
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		a0 += x0 * w0[i]
		a1 += x1 * w0[i+1]
		a2 += x2 * w0[i+2]
		a3 += x3 * w0[i+3]
		b0 += x0 * w1[i]
		b1 += x1 * w1[i+1]
		b2 += x2 * w1[i+2]
		b3 += x3 * w1[i+3]
	}
	for ; i < n; i++ {
		a0 += x[i] * w0[i]
		b0 += x[i] * w1[i]
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

// Dot1F32 is the odd-row tail of gemmF32Scalar, matching Dot2F32's per-row
// reduction order (4-wide).
func Dot1F32(x, w []float32) float32 {
	n := len(x)
	w = w[:n]
	var a0, a1, a2, a3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		a0 += x[i] * w[i]
		a1 += x[i+1] * w[i+1]
		a2 += x[i+2] * w[i+2]
		a3 += x[i+3] * w[i+3]
	}
	for ; i < n; i++ {
		a0 += x[i] * w[i]
	}
	return (a0 + a1) + (a2 + a3)
}

// MatVecGroupF32 computes dst row s = bias + x row s · wT for every s in
// group, where row s reads x[s*xStride : s*xStride+in] and writes
// dst[s*dstStride : s*dstStride+out]. It is the strided-rows front of
// GemmF32: each maximal run of consecutive group entries over compact rows
// (xStride == in, dstStride == out) is one multi-row GemmF32 call, anything
// else goes row by row. Row results are GemmF32's, so they do not depend on
// how rows are grouped.
func MatVecGroupF32(dst []float32, dstStride int, wT, bias []float32, x []float32, xStride, in, out int, group []int) {
	compact := xStride == in && dstStride == out
	for i := 0; i < len(group); {
		s, n := group[i], 1
		for compact && i+n < len(group) && group[i+n] == s+n {
			n++
		}
		GemmF32(dst[s*dstStride:], wT, bias, x[s*xStride:], n, in, out)
		i += n
	}
}

// AxpyF32 computes dst[i] += a*x[i] over len(x) elements.
func AxpyF32(dst []float32, a float32, x []float32) {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] += a * v
	}
}

// F32From widens/narrows a float64 slice into dst (len(src) elements).
func F32From(dst []float32, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float32(v)
	}
}
