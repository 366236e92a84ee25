package tensor

import "math"

// Float32 multi-head attention of one query row against a stream's cached
// keys and values: the attention kernel of the F32 decoder, in two forms
// dispatched by the same switch as the assembly GEMM.
//
//   - The AVX2 kernel (attendHeadF32Asm, one call per head) makes three
//     passes: the scores s_t = scale·(q·k_t) and their maximum into scratch;
//     p_t = exp(s_t − max) eight lanes at a time through a float32
//     polynomial exp (Cephes expf: range reduction by ln 2 in two parts, a
//     degree-5 polynomial, the exponent added as integer bits); and the
//     weighted value sum Σ p_t·v_t, one FMA chain per value lane in position
//     order, divided once by Σ p_t. A head dimension that is not a multiple
//     of 8 runs its last lanes masked, so every shape takes the same code.
//   - The portable attendRowF32 is one online-softmax pass over the cache
//     (running max and normaliser per head, math.Exp), the arithmetic every
//     machine without AVX2 computes.
//
// The two agree to float32 rounding (the tests hold them within 1e-5
// relative); each is deterministic and touches only its own row, so
// attention never depends on the rows packed around it.

// attendConsts is the kernel's constant table, one 8-lane broadcast row per
// constant (float32 bits, the last an integer) in the order
// attend32_amd64.s indexes them.
var attendConsts = func() (t [13][8]uint32) {
	for i, c := range [...]uint32{
		math.Float32bits(float32(math.Inf(-1))),
		// exp's argument floor: ln 2^-126, so 2^n stays a normal float32.
		math.Float32bits(-87.33654475),
		math.Float32bits(math.Log2E),
		// ln 2 in two parts: 0.693359375 is exact in 9 bits, so n·C1 is
		// exact for every n the floor allows.
		math.Float32bits(0.693359375),
		math.Float32bits(-2.12194440e-4),
		math.Float32bits(1.9875691500e-4),
		math.Float32bits(1.3981999507e-3),
		math.Float32bits(8.3334519073e-3),
		math.Float32bits(4.1665795894e-2),
		math.Float32bits(1.6666665459e-1),
		math.Float32bits(5.0000001201e-1),
		math.Float32bits(1),
		127, // float32 exponent bias
	} {
		for l := range t[i] {
			t[i][l] = c
		}
	}
	return t
}()

// AttendF32 computes one query row's multi-head attention output into att
// (len dm) against the first nPos ≥ 1 rows of kv, where row t is
// kv[t*2*dm : (t+1)*2*dm] — the keys in its first dm values, the values in
// its second — and the heads split dm evenly. scratch must hold
// max(nPos, 2*heads) floats; its contents are not used.
func AttendF32(att, q, kv []float32, nPos, heads, dm int, scratch []float32) {
	if !gemmAsmEnabled.Load() {
		attendRowF32(att, q, kv, nPos, heads, dm, scratch[:heads], scratch[heads:2*heads])
		return
	}
	dh := dm / heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	// Bounds are hoisted here so the kernel can run unchecked.
	_ = att[dm-1]
	_ = q[dm-1]
	_ = kv[nPos*2*dm-1]
	_ = scratch[nPos-1]
	for h := 0; h < heads; h++ {
		lo := h * dh
		attendHeadF32Asm(&att[lo], &q[lo], &kv[lo], &kv[dm+lo], 2*dm, nPos, dh, scale, &scratch[0])
	}
}

// negInf32 seeds the online-softmax running max.
var negInf32 = float32(math.Inf(-1))

// exp32 is the float32 exponential (computed via the float64 routine; the
// argument is ≤ 0 by construction in the online softmax).
func exp32(x float32) float32 {
	return float32(math.Exp(float64(x)))
}

// attendRowF32 is AttendF32's portable kernel. mAcc and lAcc (len ≥ heads)
// carry the per-head running max and normalizer of the online softmax.
//
// It makes a single pass over the cache: for each position it reads the KV
// row once, scores every head against the key half, and folds the value
// half into the output with flash-attention-style rescaling when a new max
// appears.
func attendRowF32(att, q, kv []float32, nPos, heads, dm int, mAcc, lAcc []float32) {
	dh := dm / heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	for h := 0; h < heads; h++ {
		mAcc[h] = negInf32
		lAcc[h] = 0
	}
	att = att[:dm]
	for i := range att {
		att[i] = 0
	}
	stride := 2 * dm
	for t := 0; t < nPos; t++ {
		row := kv[t*stride : (t+1)*stride]
		k, v := row[:dm], row[dm:]
		for h := 0; h < heads; h++ {
			lo := h * dh
			s := DotF32(q[lo:lo+dh], k[lo:lo+dh]) * scale
			if s > mAcc[h] {
				// New running max: rescale the accumulated sum and output.
				c := exp32(mAcc[h] - s)
				lAcc[h] *= c
				for j := lo; j < lo+dh; j++ {
					att[j] *= c
				}
				mAcc[h] = s
			}
			w := exp32(s - mAcc[h])
			lAcc[h] += w
			AxpyF32(att[lo:lo+dh], w, v[lo:lo+dh])
		}
	}
	for h := 0; h < heads; h++ {
		inv := 1 / lAcc[h]
		for j := h * dh; j < (h+1)*dh; j++ {
			att[j] *= inv
		}
	}
}
