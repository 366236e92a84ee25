package tensor

import "sync/atomic"

// Multi-row float32 GEMM: the one linear-layer kernel of the F32 decoder.
//
// Every decode pass — a plain Step (one row per slot) as much as a
// speculative verify chain (k known rows per slot) — packs the rows of a
// worker's shard together and runs each layer as a rows × panel GEMM, so a
// weight panel is fetched once and reused for every row of the shard.
//
// Weights are packed once (PackF32) into output panels: the outputs are cut
// into consecutive groups of 16, then one group of 8 if at least 8 remain,
// then one group of the last out%8, and a group of width w starting at output
// j0 stores weight (i, j0+l) at j0*in + i*w + l. A panel row — one input's
// weights for w consecutive outputs — is one contiguous load, which is what
// an outer-product kernel wants; every output still owns exactly in values,
// so the packed matrix is as large as the plain one.
//
// GemmF32 has three tile sets over that one layout, picked at run time:
//
//   - AVX2+FMA assembly tiles (amd64 with AVX2): a 4-row × 16-output
//     register tile (eight YMM accumulators) over each 16-wide panel, a
//     1-row × 64-output tile (four panels, again eight accumulators) for the
//     rows left over by the 4-row tiles, and masked 8-lane tiles for the
//     8-wide and narrower panels.
//   - AVX-512F assembly tiles (amd64 with AVX-512F and an OS that saves ZMM
//     state), in place of the two AVX2 tiles the decoder spends its time in:
//     an 8-row × 32-output tile over pairs of 16-wide panels (4-row × 32 for
//     a group of four rows left over), a 3-row × 64-output tile that runs two
//     or three leftover rows in one pass over the weights when the 16-wide
//     panels come in fours, and a 1-row × 128-output tile (eight panels,
//     then one at a time) for a single leftover row and the rest. A 16-wide
//     panel row is one ZMM. An odd last 16-wide panel and the masked tiles
//     stay AVX2.
//   - a portable scalar kernel (4/2/1-output register blocks over dot4F32 /
//     dot2F32 / dot1F32, which read a block's weights at the panel stride),
//     used on machines without AVX2 or with the switch off. Its per-output
//     arithmetic is that of the scalar matvec the decoder ran before it had
//     a GEMM, so output there has not changed.
//
// In both assembly sets output (r, j) is one chain in every tile: acc = 0;
// acc = fma(x[r,i], w[i,j], acc) for i = 0 … in-1, each step rounded once;
// dst = acc + bias[j]. So the result is independent of the tile it ran in,
// of the vector width, of the rows packed with it and of out, in, rows: the
// AVX-512 tiles compute the AVX2 tiles' bits.
//
// Every set is deterministic and row-independent, so a given machine and
// switch setting always reproduces the same bits however rows are grouped or
// sharded. The assembly and portable orders differ (one FMA chain vs paired
// partial sums), so F32 decode output is a function of whether the assembly
// runs as well as of the seed.

// gemmAsmAvailable reports whether the platform provides the assembly
// kernels (set by gemm32_amd64.go / gemm32_noasm.go at init).
var gemmAsmAvailable = hasGemmAsm()

// gemmAsmEnabled gates dispatch to the assembly kernels (GemmF32's, GeluF32's
// and AttendF32's); it starts at the platform's capability and can be lowered
// (never raised past capability) via SetGemmF32Asm.
var gemmAsmEnabled atomic.Bool

// gemmZmmAvailable reports whether the CPU also runs the AVX-512 tiles, and
// gemmZmm whether the assembly GEMM uses them. It starts at the capability;
// only tests lower it (setGemmF32Zmm), to run the AVX2 tiles on a machine
// that has both.
var (
	gemmZmmAvailable = hasGemmZmm()
	gemmZmm          atomic.Bool
)

func init() {
	gemmAsmEnabled.Store(gemmAsmAvailable)
	gemmZmm.Store(gemmZmmAvailable)
}

// setGemmF32Zmm selects the AVX-512 tiles (when the CPU has them) or the AVX2
// ones for the assembly GEMM and returns the previous setting. It is a test
// seam: SetGemmF32Asm stays the one switch callers see.
func setGemmF32Zmm(on bool) (prev bool) {
	return gemmZmm.Swap(on && gemmZmmAvailable)
}

// gemmTileFloats is the x-tile size (32 KB of float32) of the assembly
// kernel's row tiling.
const gemmTileFloats = 8192

// laneMask holds eight all-ones then eight zero lanes: the 8 lanes starting
// at laneMask[8-n] select the first n of a YMM register. The assembly
// kernels load their masks from it.
var laneMask = [16]int32{-1, -1, -1, -1, -1, -1, -1, -1}

// GemmF32Asm reports whether GemmF32 currently dispatches to the assembly
// tiles (AVX2, and AVX-512 where the CPU has it).
func GemmF32Asm() bool { return gemmAsmEnabled.Load() }

// SetGemmF32Asm enables or disables the assembly kernels — this GEMM, the
// GELU of gelu32.go (which computes the same bits either way) and the
// attention of attend32.go — returning the previous setting. Enabling is a
// no-op on machines without AVX2+FMA. The portable kernels reproduce, at
// scalar speed, what every machine without AVX2 computes — useful for
// cross-checking and for pinning tests to one arithmetic.
func SetGemmF32Asm(on bool) (prev bool) {
	prev = gemmAsmEnabled.Load()
	gemmAsmEnabled.Store(on && gemmAsmAvailable)
	return prev
}

// panelWidth returns the width of the packed panel that starts at output j0
// of an out-wide matrix: 16, then 8, then whatever is left.
func panelWidth(j0, out int) int {
	switch rem := out - j0; {
	case rem >= 16:
		return 16
	case rem >= 8:
		return 8
	default:
		return rem
	}
}

// PackF32 packs the row-major in×out weight matrix w (weight (i, j) at
// w[i*out+j], the x·W layout of a linear layer) into dst (len in*out) in
// GemmF32's panel layout, converting to float32.
func PackF32[T float32 | float64](dst []float32, w []T, in, out int) {
	for j0 := 0; j0 < out; {
		pw := panelWidth(j0, out)
		p := dst[j0*in : (j0+pw)*in]
		for i := 0; i < in; i++ {
			for l, v := range w[i*out+j0 : i*out+j0+pw] {
				p[i*pw+l] = float32(v)
			}
		}
		j0 += pw
	}
}

// GemmF32 computes dst[r*out+j] = bias[j] + Σ_i x[r*in+i]·W[i,j] for r in
// [0, rows) and j in [0, out): rows row-major input rows against a weight
// matrix w packed by PackF32. Row results are independent of the rows
// batched together. Any packed-size slice is a valid w: callers timing the
// kernel may pass random values.
func GemmF32(dst, w, bias, x []float32, rows, in, out int) {
	if rows <= 0 || out <= 0 {
		return
	}
	// Bounds are hoisted here so both kernels can run unchecked.
	_ = dst[rows*out-1]
	_ = bias[out-1]
	if in > 0 {
		_ = w[out*in-1]
		_ = x[rows*in-1]
	} else {
		// Degenerate reduction: every output is its bias.
		for r := 0; r < rows; r++ {
			copy(dst[r*out:(r+1)*out], bias[:out])
		}
		return
	}
	if gemmAsmEnabled.Load() {
		// The kernel sweeps a tile's rows once per panel, so hand it row
		// tiles whose x data stays L1-resident across the sweep (it matters
		// for the wide reduction of FF-out: in = 1024 → one 8-row group a
		// tile). Whole 4-row groups, so the tiling adds no single leftover
		// rows of its own; row results do not depend on it.
		tile := max(4, gemmTileFloats/in&^3)
		zmm := gemmZmm.Load()
		for r := 0; r < rows; r += tile {
			gemmF32Tiles(dst[r*out:], w, bias, x[r*in:], min(tile, rows-r), in, out, zmm)
		}
		return
	}
	gemmF32Scalar(dst, w, bias, x, rows, in, out)
}

// gemmF32Tiles runs one row tile through the assembly tiles. The 16-wide
// panels go to gemmZmmTiles with zmm; without, the 4-row tiles run 4×16 over
// each and the rows they leave 1×64 (then 1×16). The masked tile covers the
// 8-wide and narrower panels.
func gemmF32Tiles(dst, w, bias, x []float32, rows, in, out int, zmm bool) {
	switch full := out &^ 15; {
	case full == 0: // only an 8-wide or narrower panel
	case zmm:
		gemmZmmTiles(dst, w, bias, x, rows, in, out)
	default:
		quads := rows / 4
		if quads > 0 {
			gemm4x16F32(&dst[0], &w[0], &bias[0], &x[0], quads, in, out, full/16)
		}
		for r := 4 * quads; r < rows; r++ {
			gemm1x64F32(&dst[r*out], &w[0], &bias[0], &x[r*in], in, full/16)
		}
	}
	for j0 := out &^ 15; j0 < out; j0 += 8 {
		gemmMaskedF32(&dst[j0], &w[j0*in], &bias[j0], &x[0], rows, in, out, panelWidth(j0, out))
	}
}

// gemmZmmTiles covers the 16-wide panels of one row tile with the AVX-512
// tiles. Over pairs of panels the 8-row groups run 8×32 and a 4-row group
// left over 4×32; an odd last panel runs 4×16 for all of those rows. Two or
// three rows left run 3×64 — one weight pass for them all — when the panels
// come in fours, and otherwise, like a single row left, 1×128 (then 1×16).
func gemmZmmTiles(dst, w, bias, x []float32, rows, in, out int) {
	full, paired := out&^15, out&^31
	octs := rows / 8
	r := 8 * octs // rows covered so far
	if paired > 0 && octs > 0 {
		gemm8x32F32(&dst[0], &w[0], &bias[0], &x[0], octs, in, out, paired/32)
	}
	if rows-r >= 4 {
		if paired > 0 {
			gemm4x32F32(&dst[r*out], &w[0], &bias[0], &x[r*in], 1, in, out, paired/32)
		}
		r += 4
	}
	if paired < full && r > 0 {
		gemm4x16F32(&dst[paired], &w[paired*in], &bias[paired], &x[0], r/4, in, out, 1)
	}
	if left := rows - r; left >= 2 && full%64 == 0 {
		gemm3x64F32(&dst[r*out], &w[0], &bias[0], &x[r*in], left, in, out, full/64)
		return
	}
	for ; r < rows; r++ {
		gemm1x128F32(&dst[r*out], &w[0], &bias[0], &x[r*in], in, full/16)
	}
}

// gemmF32Scalar is the portable kernel: each panel's outputs in 4/2/1
// register blocks, input rows inner so a block's weights stay hot across the
// row group. A row's reduction order does not depend on the other rows, so a
// k-row GEMM equals k one-row GEMMs bit-for-bit; and since panel widths are
// multiples of 4 but for the last, output j gets the same block kind (and so
// the same arithmetic) as in the unpacked out×in kernel this replaced.
func gemmF32Scalar(dst, w, bias, x []float32, rows, in, out int) {
	for j0 := 0; j0 < out; {
		pw := panelWidth(j0, out)
		p := w[j0*in : (j0+pw)*in]
		j := 0
		for ; j+4 <= pw; j += 4 {
			b0, b1, b2, b3 := bias[j0+j], bias[j0+j+1], bias[j0+j+2], bias[j0+j+3]
			for r := 0; r < rows; r++ {
				r0, r1, r2, r3 := dot4F32(x[r*in:r*in+in], p[j:], pw)
				d := dst[r*out+j0+j : r*out+j0+j+4]
				d[0] = b0 + r0
				d[1] = b1 + r1
				d[2] = b2 + r2
				d[3] = b3 + r3
			}
		}
		if j+2 <= pw {
			for r := 0; r < rows; r++ {
				r0, r1 := dot2F32(x[r*in:r*in+in], p[j:], pw)
				dst[r*out+j0+j] = bias[j0+j] + r0
				dst[r*out+j0+j+1] = bias[j0+j+1] + r1
			}
			j += 2
		}
		if j < pw {
			for r := 0; r < rows; r++ {
				dst[r*out+j0+j] = bias[j0+j] + dot1F32(x[r*in:r*in+in], p[j:], pw)
			}
		}
		j0 += pw
	}
}
