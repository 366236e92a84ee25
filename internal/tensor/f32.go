package tensor

// Float32 row kernels backing the CPT-GPT decode fast path: the dot/axpy of
// the portable attention (attend32.go) and the residual adds, and the
// dot-product blocks of the portable GEMM (gemm32.go). They are scalar Go
// written for instruction-level parallelism (independent partial
// accumulators, one panel row per input); their accumulation order is
// fixed, so results are deterministic for a given input regardless of the
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

// dot4F32 computes the dot products of x against four consecutive outputs of
// a packed panel — the 4-output register block of gemmF32Scalar. p starts at
// the block's first output and the panel is stride wide, so input i's four
// weights are p[i*stride : i*stride+4]. Each x element is loaded once for all
// four outputs, and each output accumulates in two chains of paired
// multiply-adds (eight independent chains total), which is where the scalar
// FP ports saturate on this loop shape. The accumulation order is fixed, so
// results are deterministic.
func dot4F32(x, p []float32, stride int) (r0, r1, r2, r3 float32) {
	n := len(x)
	var a0, a1, b0, b1, c0, c1, d0, d1 float32
	i := 0
	if stride == 16 {
		// The same steps over a 16-wide panel, where four inputs' weights
		// sit at constant offsets of one view: one bounds check per step
		// instead of four. The view ends 12 floats short of the fourth row,
		// so it fits at every block offset p can start at.
		x := x[:n]
		for ; i+4 <= n; i += 4 {
			x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
			w := (*[52]float32)(p[i*16:])
			a0 += x0*w[0] + x2*w[32]
			a1 += x1*w[16] + x3*w[48]
			b0 += x0*w[1] + x2*w[33]
			b1 += x1*w[17] + x3*w[49]
			c0 += x0*w[2] + x2*w[34]
			c1 += x1*w[18] + x3*w[50]
			d0 += x0*w[3] + x2*w[35]
			d1 += x1*w[19] + x3*w[51]
		}
	}
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		w0 := p[i*stride : i*stride+4]
		w1 := p[(i+1)*stride : (i+1)*stride+4]
		w2 := p[(i+2)*stride : (i+2)*stride+4]
		w3 := p[(i+3)*stride : (i+3)*stride+4]
		a0 += x0*w0[0] + x2*w2[0]
		a1 += x1*w1[0] + x3*w3[0]
		b0 += x0*w0[1] + x2*w2[1]
		b1 += x1*w1[1] + x3*w3[1]
		c0 += x0*w0[2] + x2*w2[2]
		c1 += x1*w1[2] + x3*w3[2]
		d0 += x0*w0[3] + x2*w2[3]
		d1 += x1*w1[3] + x3*w3[3]
	}
	for ; i < n; i++ {
		w := p[i*stride : i*stride+4]
		a0 += x[i] * w[0]
		b0 += x[i] * w[1]
		c0 += x[i] * w[2]
		d0 += x[i] * w[3]
	}
	return a0 + a1, b0 + b1, c0 + c1, d0 + d1
}

// dot2F32 is dot4F32 for two outputs — the 2-output tail block of
// gemmF32Scalar: each x element is loaded once for both outputs, with four
// accumulator chains per output.
func dot2F32(x, p []float32, stride int) (r0, r1 float32) {
	n := len(x)
	var a0, a1, a2, a3 float32
	var b0, b1, b2, b3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		w0 := p[i*stride : i*stride+2]
		w1 := p[(i+1)*stride : (i+1)*stride+2]
		w2 := p[(i+2)*stride : (i+2)*stride+2]
		w3 := p[(i+3)*stride : (i+3)*stride+2]
		a0 += x0 * w0[0]
		a1 += x1 * w1[0]
		a2 += x2 * w2[0]
		a3 += x3 * w3[0]
		b0 += x0 * w0[1]
		b1 += x1 * w1[1]
		b2 += x2 * w2[1]
		b3 += x3 * w3[1]
	}
	for ; i < n; i++ {
		w := p[i*stride : i*stride+2]
		a0 += x[i] * w[0]
		b0 += x[i] * w[1]
	}
	return (a0 + a1) + (a2 + a3), (b0 + b1) + (b2 + b3)
}

// dot1F32 is the odd-output tail of gemmF32Scalar, matching dot2F32's
// per-output reduction order (4-wide).
func dot1F32(x, p []float32, stride int) float32 {
	n := len(x)
	var a0, a1, a2, a3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		a0 += x[i] * p[i*stride]
		a1 += x[i+1] * p[(i+1)*stride]
		a2 += x[i+2] * p[(i+2)*stride]
		a3 += x[i+3] * p[(i+3)*stride]
	}
	for ; i < n; i++ {
		a0 += x[i] * p[i*stride]
	}
	return (a0 + a1) + (a2 + a3)
}

// MatVecGroupF32 computes dst row s = bias + x row s · W for every s in
// group, W packed by PackF32 (as GemmF32 takes it), where row s reads
// x[s*xStride : s*xStride+in] and writes
// dst[s*dstStride : s*dstStride+out]. It is the strided-rows front of
// GemmF32: each maximal run of consecutive group entries over compact rows
// (xStride == in, dstStride == out) is one multi-row GemmF32 call, anything
// else goes row by row. Row results are GemmF32's, so they do not depend on
// how rows are grouped.
func MatVecGroupF32(dst []float32, dstStride int, w, bias []float32, x []float32, xStride, in, out int, group []int) {
	compact := xStride == in && dstStride == out
	for i := 0; i < len(group); {
		s, n := group[i], 1
		for compact && i+n < len(group) && group[i+n] == s+n {
			n++
		}
		GemmF32(dst[s*dstStride:], w, bias, x[s*xStride:], n, in, out)
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
