package tensor

// Matrix-multiply kernels. Three products back the MatMul op: the forward
// product and the two gradient accumulations. All three run one loop body,
// axpyRows: destination rows go in pairs (axpy4x2 shares each operand-row
// load between the two; axpy4 finishes an odd row), the shared dimension k
// is tiled by mmBlockK so a block of operand rows stays in cache while a
// shard's rows stream past it, and a zero multiplier adds nothing, which is
// what makes one-hot token rows cheap. The inner loops are in axpy form
// (independent adds across j) rather than dot form: a dot product's single
// accumulator is a loop-carried dependency chain that stalls the FPU
// pipeline, which measurably dominates these kernels on scalar Go.
//
// Each product's shape rule decides only whether an operand is packed
// first: matmulInto repacks b into column panels, matmulAccT packs aᵀ so a
// gradient row reads its activation column sequentially, and matmulAccBT
// packs bᵀ back into k-major order. In matmulInto and matmulAccT every
// output element sums its terms in ascending k whichever way the rule goes,
// so packing is a pure performance decision, bit for bit, and the parallel
// row sharding on top preserves bit-exactness at any degree
// (parallel_test.go). matmulAccBT's unpacked path, matmulAccBTNaive, is a
// dot product with one local accumulator per element instead — a
// re-association that can differ in the last ulp — so its rule depends only
// on the weight-matrix shape, never on the row count, keeping every training
// configuration (serial, packed, any parallelism) on the same kernel for a
// given layer.

const (
	// mmBlockK tiles the shared dimension of every product, and mmBlockJ is
	// the width of the column panels matmulInto packs b into: a tile is at
	// most mmBlockJ×mmBlockK floats (32 KiB), sized to sit in L1 while a
	// shard's rows stream past it.
	mmBlockJ = 64
	mmBlockK = 64

	// mmPackMinK is the smallest shared dimension worth packing: below it
	// the copy costs more than the strided reads it avoids (one-hot inputs
	// have k = d_token).
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

// axpyPair dispatches one k-step for a row pair, skipping each row whose
// multiplier is zero.
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

// axpyRows folds d(i, j) += Σ_k a(i, k)·b(k, j) into the rows i in
// [lo, hi), where row i of d is d[i*dRow : i*dRow+n], a(i, k) is
// a[i*aRow+k*aK], and row k of b is b[k*bRow : k*bRow+n]. k runs over
// [0, kn) in tiles of mmBlockK, ascending within and across tiles, so every
// element sums its terms in ascending k; a zero a(i, k) is skipped.
func axpyRows(d, a, b []float64, lo, hi, dRow, aRow, aK, bRow, kn, n int) {
	for kb := 0; kb < kn; kb += mmBlockK {
		ke := min(kb+mmBlockK, kn)
		i := lo
		for ; i+2 <= hi; i += 2 {
			d0 := d[i*dRow : i*dRow+n]
			d1 := d[(i+1)*dRow : (i+1)*dRow+n]
			for k, o := kb, i*aRow+kb*aK; k < ke; k, o = k+1, o+aK {
				axpyPair(d0, d1, b[k*bRow:k*bRow+n], a[o], a[o+aRow])
			}
		}
		if i < hi {
			di := d[i*dRow : i*dRow+n]
			for k, o := kb, i*aRow+kb*aK; k < ke; k, o = k+1, o+aK {
				if av := a[o]; av != 0 {
					axpy4(di, b[k*bRow:k*bRow+n], av)
				}
			}
		}
	}
}

// transposeInto writes the r×c matrix src into dst as its c×r transpose.
func transposeInto(dst, src []float64, r, c int) {
	for i := 0; i < r; i++ {
		for j, v := range src[i*c : (i+1)*c] {
			dst[j*r+i] = v
		}
	}
}

// matmulInto computes dst = a(rA×cA) · b(cA×cB) with dst pre-sized. A
// product large enough to pack first copies b into column panels of width
// mmBlockJ, each row-major over k, so one ≤32 KiB tile of a panel is reused
// across all of a shard's rows.
func matmulInto(dst, a, b []float64, rA, cA, cB int) {
	if cA < mmPackMinK || cB < 4 || rA*cA*cB < mmPackMinWork {
		parallelRows(rA, cA*cB, func(lo, hi int) {
			clear(dst[lo*cB : hi*cB])
			axpyRows(dst, a, b, lo, hi, cB, cA, 1, cB, cA, cB)
		})
		return
	}
	bp, handle := getRawBuf(cA * cB)
	for jb := 0; jb < cB; jb += mmBlockJ {
		w := min(mmBlockJ, cB-jb)
		for k := 0; k < cA; k++ {
			copy(bp[jb*cA+k*w:jb*cA+(k+1)*w], b[k*cB+jb:])
		}
	}
	parallelRows(rA, 2*cA*cB, func(lo, hi int) {
		clear(dst[lo*cB : hi*cB])
		for jb := 0; jb < cB; jb += mmBlockJ {
			w := min(mmBlockJ, cB-jb)
			axpyRows(dst[jb:], a, bp[jb*cA:], lo, hi, cB, cA, 1, w, cA, w)
		}
	})
	putBuf(handle)
}

// matmulAccT computes dst += aᵀ(cA×rA)·b(rA×cB) where a is rA×cA — used for
// weight gradients (dW = Xᵀ·dY). Row i of aᵀ is column i of a, read with
// stride cA unless the product is large enough to pack aᵀ first. Either
// way each element sums in ascending k (= ascending activation row), which
// is also what makes packed-minibatch training reproduce the serial
// per-stream gradients exactly: streams are stacked in order, so one
// accumulation over the batch adds the same terms in the same order as the
// per-stream accumulations did.
func matmulAccT(dst, a, b []float64, rA, cA, cB int) {
	if rA < mmPackMinK || rA*cA*cB < mmPackMinWork {
		parallelRows(cA, rA*cB, func(lo, hi int) {
			axpyRows(dst, a, b, lo, hi, cB, 1, cA, cB, rA, cB)
		})
		return
	}
	at, handle := getRawBuf(cA * rA)
	transposeInto(at, a, rA, cA)
	parallelRows(cA, 2*rA*cB, func(lo, hi int) {
		axpyRows(dst, at, b, lo, hi, cB, rA, 1, cB, rA, cB)
	})
	putBuf(handle)
}

// matmulAccBT computes dst(rA×rB) += a(rA×cA) · bᵀ where b is rB×cA — used
// for input gradients (dX = dY·Wᵀ). A large enough weight b is packed back
// into k-major order, turning per-element dot products into axpy row
// updates that fold each term directly into dst; a small one runs
// matmulAccBTNaive. The rule depends only on b's (weight) shape so that
// every sequence length of a given layer takes the same path.
func matmulAccBT(dst, a, b []float64, rA, cA, rB int) {
	if cA < 4 || cA*rB < mmPackMinPanel {
		matmulAccBTNaive(dst, a, b, rA, cA, rB)
		return
	}
	bt, handle := getRawBuf(cA * rB)
	transposeInto(bt, b, rB, cA)
	parallelRows(rA, 2*cA*rB, func(lo, hi int) {
		axpyRows(dst, a, bt, lo, hi, rB, cA, 1, rB, cA, rB)
	})
	putBuf(handle)
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
