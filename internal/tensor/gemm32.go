package tensor

import "sync/atomic"

// Multi-row float32 GEMM: the one linear-layer kernel of the F32 decoder.
//
// Every decode pass — a plain Step (one row per slot) as much as a
// speculative verify chain (k known rows per slot) — packs the rows of a
// worker's shard together and runs each layer as a rows × panel GEMM, so a
// weight row is fetched once and reused for every row of the shard.
//
// GemmF32 has two implementations:
//
//   - an AVX2+FMA assembly kernel (amd64, runtime-detected) that takes the
//     input rows two at a time against each weight row: the weight row's
//     8-lane chunks are loaded once and multiplied into both rows' own four
//     accumulators, eight independent FMA chains in flight;
//   - a portable scalar kernel (4/2/1-output register blocks over Dot4F32 /
//     Dot2F32 / Dot1F32), used on machines without AVX2 or with the kill
//     switch thrown. Its per-row arithmetic is that of the scalar matvec the
//     decoder ran before it had a GEMM, so output there has not changed.
//
// Both are deterministic and row-independent: the reduction order of one
// (row, output) pair is fixed and does not depend on the rows batched with
// it — in the assembly kernel a row's four accumulators, their combine and
// its scalar tail are the same whether it is first or second of a pair or
// an odd last row on its own — so a given machine and kill-switch setting
// always reproduces the same bits however rows are grouped or sharded. The
// two orders differ (8-lane tree vs 4-chain pairwise), so F32 decode output
// is a function of the kernel in use as well as of the seed.

// gemmAsmAvailable reports whether the platform provides the assembly
// kernel (set by gemm32_amd64.go / gemm32_noasm.go at init).
var gemmAsmAvailable = hasGemmAsm()

// gemmAsmEnabled gates dispatch to the assembly kernels (GemmF32's and
// GeluF32's); it starts at the platform's capability and can be lowered
// (never raised past capability) via SetGemmF32Asm.
var gemmAsmEnabled atomic.Bool

func init() {
	gemmAsmEnabled.Store(gemmAsmAvailable)
}

// gemmTileFloats is the x-tile size (32 KB of float32) of the assembly
// kernel's row tiling.
const gemmTileFloats = 8192

// GemmF32Asm reports whether GemmF32 currently dispatches to the AVX2
// assembly kernel.
func GemmF32Asm() bool { return gemmAsmEnabled.Load() }

// SetGemmF32Asm enables or disables the assembly kernels (this GEMM and the
// GELU of gelu32.go, which computes the same bits either way), returning the
// previous setting. Enabling is a no-op on machines without AVX2+FMA. The
// scalar kernel reproduces, at scalar speed, what every machine without AVX2
// computes — useful for cross-checking and for pinning tests to one
// arithmetic.
func SetGemmF32Asm(on bool) (prev bool) {
	prev = gemmAsmEnabled.Load()
	gemmAsmEnabled.Store(on && gemmAsmAvailable)
	return prev
}

// GemmF32 computes dst[r*out+j] = bias[j] + x[r*in:]·wT[j*in:] for
// r in [0, rows) and j in [0, out): rows row-major input rows against a
// transposed (out×in) weight panel. Row results are independent of the rows
// batched together.
func GemmF32(dst, wT, bias, x []float32, rows, in, out int) {
	if rows <= 0 || out <= 0 {
		return
	}
	// Bounds are hoisted here so both kernels can run unchecked.
	_ = dst[rows*out-1]
	_ = bias[out-1]
	if in > 0 {
		_ = wT[out*in-1]
		_ = x[rows*in-1]
	} else {
		// Degenerate reduction: every output is its bias.
		for r := 0; r < rows; r++ {
			copy(dst[r*out:(r+1)*out], bias[:out])
		}
		return
	}
	if gemmAsmEnabled.Load() {
		// The kernel sweeps all of its input rows once per weight row, so
		// hand it row tiles whose x data stays L1-resident across the sweep
		// (it matters for the wide reduction of FF-out: in = 1024 → 8-row
		// tiles). Row results do not depend on the tiling.
		tile := max(1, gemmTileFloats/in)
		for r := 0; r < rows; r += tile {
			gemmF32Asm(&dst[r*out], &wT[0], &bias[0], &x[r*in], min(tile, rows-r), in, out)
		}
		return
	}
	gemmF32Scalar(dst, wT, bias, x, rows, in, out)
}

// gemmF32Scalar is the portable kernel: outputs in 4/2/1 register blocks,
// input rows inner so each weight block stays hot across the row group. A
// row's reduction order does not depend on the other rows, so a k-row GEMM
// equals k one-row GEMMs bit-for-bit.
func gemmF32Scalar(dst, wT, bias, x []float32, rows, in, out int) {
	j := 0
	for ; j+4 <= out; j += 4 {
		w0 := wT[j*in : (j+1)*in]
		w1 := wT[(j+1)*in : (j+2)*in]
		w2 := wT[(j+2)*in : (j+3)*in]
		w3 := wT[(j+3)*in : (j+4)*in]
		b0, b1, b2, b3 := bias[j], bias[j+1], bias[j+2], bias[j+3]
		for r := 0; r < rows; r++ {
			xr := x[r*in : r*in+in]
			r0, r1, r2, r3 := Dot4F32(xr, w0, w1, w2, w3)
			d := dst[r*out+j : r*out+j+4]
			d[0] = b0 + r0
			d[1] = b1 + r1
			d[2] = b2 + r2
			d[3] = b3 + r3
		}
	}
	if j+2 <= out {
		w0 := wT[j*in : (j+1)*in]
		w1 := wT[(j+1)*in : (j+2)*in]
		for r := 0; r < rows; r++ {
			xr := x[r*in : r*in+in]
			r0, r1 := Dot2F32(xr, w0, w1)
			dst[r*out+j] = bias[j] + r0
			dst[r*out+j+1] = bias[j+1] + r1
		}
		j += 2
	}
	if j < out {
		w0 := wT[j*in : (j+1)*in]
		for r := 0; r < rows; r++ {
			dst[r*out+j] = bias[j] + Dot1F32(x[r*in:r*in+in], w0)
		}
	}
}
