package tensor

// Matrix-multiply kernels. Three variants back the MatMul op: the forward
// product and the two gradient accumulations. Each has a naive row-loop path
// (cheapest for small or very sparse operands, e.g. one-hot token rows) and
// a cache-blocked path that packs the strided operand once per call and
// tiles the j/k loops so a panel block stays in cache across many output
// rows; which one runs is a function of the operand shape alone. All inner
// loops are kept in axpy form (independent adds across j)
// rather than dot form: a dot product's single accumulator is a loop-carried
// dependency chain that stalls the FPU pipeline, which measurably dominates
// these kernels on scalar Go.
//
// matmulInto and matmulAccT accumulate every output element over k in
// ascending order on both paths, so their blocked results are bit-identical
// to the naive ones; the kernel choice is a pure performance decision and
// the parallel row sharding on top preserves bit-exactness at any degree
// exactly as before (parallel_test.go). matmulAccBT's blocked path folds
// terms directly into the destination instead of via the naive path's local
// dot accumulator — a re-association that can differ in the last ulp — so
// its path choice depends only on the weight-matrix shape, never on the row
// count, keeping every training configuration (serial, packed, any
// parallelism) on the same kernel for a given layer.

const (
	// mmBlockJ and mmBlockK tile the packed panels: a tile is at most
	// mmBlockJ×mmBlockK floats (32 KiB), sized to sit in L1 while a shard's
	// rows stream past it.
	mmBlockJ = 64
	mmBlockK = 64

	// mmPackMinK is the smallest shared dimension worth packing: below it
	// the transpose costs more than the strided reads it avoids, and the
	// naive kernel's zero-skip wins on one-hot inputs (k = d_token).
	mmPackMinK = 16

	// mmPackMinWork is the smallest multiply-add count worth packing.
	mmPackMinWork = 1 << 14

	// mmPackMinPanel is the smallest bᵀ panel (weight-shape product) worth
	// packing in matmulAccBT. Deliberately a function of the weight shape
	// only — see the bit-exactness note above.
	mmPackMinPanel = 512
)

// axpy4 folds di[j] += av*bk[j] over equal-length di and bk with a 4-way
// unroll. Each j is an independent element, so the per-element accumulation
// order is exactly the plain loop's; the unroll only trims loop overhead and
// bounds checks.
func axpy4(di, bk []float64, av float64) {
	n := len(bk)
	di = di[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		di[j] += av * bk[j]
		di[j+1] += av * bk[j+1]
		di[j+2] += av * bk[j+2]
		di[j+3] += av * bk[j+3]
	}
	for ; j < n; j++ {
		di[j] += av * bk[j]
	}
}

// axpy4x2 folds two rows at once — di0[j] += a0*bk[j] and di1[j] += a1*bk[j]
// — sharing each bk load between them (2-row register blocking). The rows
// are distinct destinations, so per-element accumulation order is untouched.
func axpy4x2(di0, di1, bk []float64, a0, a1 float64) {
	n := len(bk)
	di0 = di0[:n]
	di1 = di1[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		b0, b1, b2, b3 := bk[j], bk[j+1], bk[j+2], bk[j+3]
		di0[j] += a0 * b0
		di0[j+1] += a0 * b1
		di0[j+2] += a0 * b2
		di0[j+3] += a0 * b3
		di1[j] += a1 * b0
		di1[j+1] += a1 * b1
		di1[j+2] += a1 * b2
		di1[j+3] += a1 * b3
	}
	for ; j < n; j++ {
		bv := bk[j]
		di0[j] += a0 * bv
		di1[j] += a1 * bv
	}
}

// axpyPair dispatches one k-step for a row pair, preserving the naive
// kernel's exact zero-skip semantics per row.
func axpyPair(di0, di1, bk []float64, a0, a1 float64) {
	switch {
	case a0 != 0 && a1 != 0:
		axpy4x2(di0, di1, bk, a0, a1)
	case a0 != 0:
		axpy4(di0, bk, a0)
	case a1 != 0:
		axpy4(di1, bk, a1)
	}
}

// matmulInto computes dst = a(rA×cA) · b(cA×cB) with dst pre-sized.
func matmulInto(dst, a, b []float64, rA, cA, cB int) {
	if cA >= mmPackMinK && cB >= 4 && rA*cA*cB >= mmPackMinWork {
		matmulIntoBlocked(dst, a, b, rA, cA, cB)
		return
	}
	matmulIntoNaive(dst, a, b, rA, cA, cB)
}

// matmulIntoNaive is the row-loop path of matmulInto: it skips zero entries
// of a, which is what makes one-hot token rows cheap.
func matmulIntoNaive(dst, a, b []float64, rA, cA, cB int) {
	parallelRows(rA, cA*cB, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a[i*cA : (i+1)*cA]
			di := dst[i*cB : (i+1)*cB]
			for j := range di {
				di[j] = 0
			}
			for k, av := range ai {
				if av == 0 {
					continue
				}
				bk := b[k*cB : (k+1)*cB]
				for j, bv := range bk {
					di[j] += av * bv
				}
			}
		}
	})
}

// matmulIntoBlocked is the packed path of matmulInto: b is repacked once
// into column panels of width mmBlockJ (each panel row-major over k), then
// each shard walks j/k tiles so one ≤32 KiB tile is reused across all of the
// shard's rows. Accumulation folds terms directly into dst in ascending k
// order — tiles ascend and rows within a tile ascend — which is the naive
// kernel's association exactly, so results match bit for bit.
func matmulIntoBlocked(dst, a, b []float64, rA, cA, cB int) {
	bp, handle := getRawBuf(cA * cB)
	off := 0
	for jb := 0; jb < cB; jb += mmBlockJ {
		je := min(jb+mmBlockJ, cB)
		w := je - jb
		for k := 0; k < cA; k++ {
			copy(bp[off+k*w:off+(k+1)*w], b[k*cB+jb:k*cB+je])
		}
		off += cA * w
	}
	parallelRows(rA, 2*cA*cB, func(lo, hi int) {
		off := 0
		for jb := 0; jb < cB; jb += mmBlockJ {
			je := min(jb+mmBlockJ, cB)
			w := je - jb
			for kb := 0; kb < cA; kb += mmBlockK {
				ke := min(kb+mmBlockK, cA)
				i := lo
				for ; i+2 <= hi; i += 2 {
					ai0 := a[i*cA : (i+1)*cA]
					ai1 := a[(i+1)*cA : (i+2)*cA]
					di0 := dst[i*cB+jb : i*cB+je]
					di1 := dst[(i+1)*cB+jb : (i+1)*cB+je]
					if kb == 0 {
						for j := range di0 {
							di0[j] = 0
						}
						for j := range di1 {
							di1[j] = 0
						}
					}
					for k := kb; k < ke; k++ {
						axpyPair(di0, di1, bp[off+k*w:off+(k+1)*w], ai0[k], ai1[k])
					}
				}
				for ; i < hi; i++ {
					ai := a[i*cA : (i+1)*cA]
					di := dst[i*cB+jb : i*cB+je]
					if kb == 0 {
						for j := range di {
							di[j] = 0
						}
					}
					for k := kb; k < ke; k++ {
						av := ai[k]
						if av == 0 {
							continue
						}
						axpy4(di, bp[off+k*w:off+(k+1)*w], av)
					}
				}
			}
			off += cA * w
		}
	})
	putBuf(handle)
}

// matmulAccT computes dst += aᵀ(cA×rA)·b(rA×cB) where a is rA×cA — used for
// weight gradients (dW = Xᵀ·dY).
func matmulAccT(dst, a, b []float64, rA, cA, cB int) {
	if rA >= mmPackMinK && rA*cA*cB >= mmPackMinWork {
		matmulAccTBlocked(dst, a, b, rA, cA, cB)
		return
	}
	matmulAccTNaive(dst, a, b, rA, cA, cB)
}

// matmulAccTNaive is the row-loop path of matmulAccT, reading a by column.
func matmulAccTNaive(dst, a, b []float64, rA, cA, cB int) {
	parallelRows(cA, rA*cB, func(lo, hi int) {
		for i := lo; i < hi; i++ { // row of aᵀ = column i of a
			di := dst[i*cB : (i+1)*cB]
			for k := 0; k < rA; k++ {
				av := a[k*cA+i]
				if av == 0 {
					continue
				}
				bk := b[k*cB : (k+1)*cB]
				for j, bv := range bk {
					di[j] += av * bv
				}
			}
		}
	})
}

// matmulAccTBlocked packs aᵀ once so each gradient row reads its activation
// column sequentially instead of with stride cA, then tiles the k loop so a
// block of b's rows is reused across the shard. Accumulation per element
// stays in ascending k (= ascending activation row) order: tiles ascend and
// rows inside a tile ascend, so the sum matches the naive kernel bit for bit
// — which is also what makes packed-minibatch training reproduce the serial
// per-stream gradients exactly (streams are stacked in order, so one blocked
// accumulation over the batch adds the same terms in the same order as the
// per-stream accumulations did).
func matmulAccTBlocked(dst, a, b []float64, rA, cA, cB int) {
	at, handle := getRawBuf(cA * rA)
	for k := 0; k < rA; k++ {
		row := a[k*cA : (k+1)*cA]
		for i, v := range row {
			at[i*rA+k] = v
		}
	}
	parallelRows(cA, 2*rA*cB, func(lo, hi int) {
		for kb := 0; kb < rA; kb += mmBlockK {
			ke := min(kb+mmBlockK, rA)
			i := lo
			for ; i+2 <= hi; i += 2 {
				ai0 := at[i*rA : (i+1)*rA]
				ai1 := at[(i+1)*rA : (i+2)*rA]
				di0 := dst[i*cB : (i+1)*cB]
				di1 := dst[(i+1)*cB : (i+2)*cB]
				for k := kb; k < ke; k++ {
					axpyPair(di0, di1, b[k*cB:(k+1)*cB], ai0[k], ai1[k])
				}
			}
			for ; i < hi; i++ {
				ai := at[i*rA : (i+1)*rA]
				di := dst[i*cB : (i+1)*cB]
				for k := kb; k < ke; k++ {
					av := ai[k]
					if av == 0 {
						continue
					}
					axpy4(di, b[k*cB:(k+1)*cB], av)
				}
			}
		}
	})
	putBuf(handle)
}

// matmulAccBT computes dst += a(rA×cA)·bᵀ(cB×cA→cA×cB)… precisely:
// dst(rA×rB) += a(rA×cA) · bᵀ where b is rB×cA — used for input gradients
// (dX = dY·Wᵀ). The packing condition depends only on b's (weight) shape so
// that every sequence length of a given layer takes the same path.
func matmulAccBT(dst, a, b []float64, rA, cA, rB int) {
	if cA >= 4 && cA*rB >= mmPackMinPanel {
		matmulAccBTBlocked(dst, a, b, rA, cA, rB)
		return
	}
	matmulAccBTNaive(dst, a, b, rA, cA, rB)
}

// matmulAccBTNaive is the dot-product path of matmulAccBT: one local
// accumulator per output element.
func matmulAccBTNaive(dst, a, b []float64, rA, cA, rB int) {
	parallelRows(rA, cA*rB, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ai := a[i*cA : (i+1)*cA]
			di := dst[i*rB : (i+1)*rB]
			for j := 0; j < rB; j++ {
				bj := b[j*cA : (j+1)*cA]
				var s float64
				for k, av := range ai {
					s += av * bj[k]
				}
				di[j] += s
			}
		}
	})
}

// matmulAccBTBlocked packs b (already transposed relative to the product)
// back into k-major order once, turning the per-element dot products of the
// naive path into axpy row updates: for each k, one multiple of a packed
// row folds into the destination row. This trades the naive path's
// dot-accumulator dependency chain for independent adds, at the cost of
// re-associating the k-reduction (terms fold directly into dst), which can
// differ from the naive path in the last ulp.
func matmulAccBTBlocked(dst, a, b []float64, rA, cA, rB int) {
	bt, handle := getRawBuf(cA * rB) // bt[k*rB+j] = b[j*cA+k]
	for j := 0; j < rB; j++ {
		row := b[j*cA : (j+1)*cA]
		for k, v := range row {
			bt[k*rB+j] = v
		}
	}
	parallelRows(rA, 2*cA*rB, func(lo, hi int) {
		for kb := 0; kb < cA; kb += mmBlockK {
			ke := min(kb+mmBlockK, cA)
			i := lo
			for ; i+2 <= hi; i += 2 {
				ai0 := a[i*cA : (i+1)*cA]
				ai1 := a[(i+1)*cA : (i+2)*cA]
				di0 := dst[i*rB : (i+1)*rB]
				di1 := dst[(i+1)*rB : (i+2)*rB]
				for k := kb; k < ke; k++ {
					axpyPair(di0, di1, bt[k*rB:(k+1)*rB], ai0[k], ai1[k])
				}
			}
			for ; i < hi; i++ {
				ai := a[i*cA : (i+1)*cA]
				di := dst[i*rB : (i+1)*rB]
				for k := kb; k < ke; k++ {
					av := ai[k]
					if av == 0 {
						continue
					}
					axpy4(di, bt[k*rB:(k+1)*rB], av)
				}
			}
		}
	})
	putBuf(handle)
}
