package cptgpt

import (
	"math"

	"cptgpt/internal/nn"
	"cptgpt/internal/tensor"
)

// Float32 kernels of the decode. They follow the model's float64 forward
// (Model.Forward) but trade its bits for throughput:
//
//   - Linear layers run through tensor.GemmF32 over the InferModel's packed
//     weight panels, every (slot, row) of a worker's shard packed into one
//     multi-row call (stepRowsF32), and the feed-forward GELU through
//     tensor.GeluF32 over the same packed rows.
//   - Attention runs per row through tensor.AttendF32 over the slot's
//     interleaved [K|V] cache rows, with the slot's own score scratch.
//
// Each of the three has an AVX2 kernel, used where the machine has it (the
// GEMM also has AVX-512 tiles with the AVX2 tiles' bits), and a portable one
// (tensor.SetGemmF32Asm switches all three together).
//
// Every reduction has a fixed order that does not depend on the rows packed
// around it, so decoding is deterministic per kernel set.

// layerNormRowF32 computes dst = LN(row) with l's gain and bias. The mean
// and variance accumulate in float64 (scalar registers, effectively free)
// to keep the normalization statistics tight.
func layerNormRowF32(dst, row []float32, l *nn.LayerNormF32) {
	n := float64(len(row))
	var mu float64
	for _, v := range row {
		mu += float64(v)
	}
	mu /= n
	var va float64
	for _, v := range row {
		d := float64(v) - mu
		va += d * d
	}
	va /= n
	m := float32(mu)
	istd := float32(1 / math.Sqrt(va+l.Eps))
	for i, v := range row {
		dst[i] = (v-m)*istd*l.Gain[i] + l.Bias[i]
	}
}

// layerNormRowsF32 applies layerNormRowF32 to every width-wide row of src.
func layerNormRowsF32(dst, src []float32, width int, l *nn.LayerNormF32) {
	for o := 0; o < len(src); o += width {
		layerNormRowF32(dst[o:o+width], src[o:o+width], l)
	}
}

// widenF32 copies src into dst as float64 (exact).
func widenF32(dst []float64, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// stepRowsF32 is the float32 row body of Step and StepK: it advances each
// slot of slots[lo:hi] by its ks count of tokens (all 1 for Step) in one
// pass over the frozen InferModel snapshot. The shard's (slot, row) pairs sit
// in consecutive packed rows of the decoder's scratch (BatchDecoder.rowOff),
// so every linear layer — input projection, Wq/Wk/Wv/Wo, feed-forward in and
// out, the three heads — is ONE tensor.GemmF32 over all of the shard's rows:
// a weight panel is streamed once per shard, not once per slot or token.
// Layer norm, residuals and attention stay per row; row r of a slot attends
// to exactly the slot's own cache through position pos+r, which keeps a
// multi-row pass causally identical to single-token stepping.
//
// Per-(slot, row) results do not depend on the shard composition or the
// worker fan-out: a GEMM row's reduction order is fixed whatever rows are
// packed around it, and every other kernel is per-row with a fixed order. So
// k rows through one pass equal k successive one-row passes bit for bit, and
// decoding is deterministic at every parallelism and batch composition
// (per kernel set: the AVX2 and portable kernels differ in order). Head
// outputs are widened into the shared float64 StepOut buffers; widening is
// exact, so sampling sees precisely the float32 results.
func (d *BatchDecoder) stepRowsF32(slots, ks []int, lo, hi, kMax int, tokens []float64) {
	m := d.m
	inf := d.inf
	dm := m.Cfg.DModel
	dim := m.Tok.Dim()
	maxLen := m.Cfg.MaxLen
	attW := len(d.attScratch32) / d.capacity
	v := m.Tok.V()
	mlpH := m.Cfg.MLPHidden
	iaW := d.iaWidth()
	hw := len(d.hid32) / (d.capacity * d.kMax) // per-row width of the head scratch
	base := d.rowOff[lo]
	rows := d.rowOff[hi] - base

	// Token intake (and the past-MaxLen panic, before any work). A slot's
	// rows are contiguous both in tokens and in the packed scratch.
	for i := lo; i < hi; i++ {
		slot, k, row := slots[i], ks[i], d.rowOff[i]
		if d.pos[slot]+k > maxLen {
			panic("cptgpt: BatchDecoder stepped past MaxLen")
		}
		tensor.F32From(d.tok32[row*dim:(row+k)*dim], tokens[slot*kMax*dim:(slot*kMax+k)*dim])
	}

	x := d.x32[base*dm : (base+rows)*dm]
	q := d.q32[base*dm : (base+rows)*dm]
	kk := d.k32[base*dm : (base+rows)*dm]
	vv := d.v32[base*dm : (base+rows)*dm]
	att := d.att32[base*dm : (base+rows)*dm]
	tmp := d.tmp32[base*dm : (base+rows)*dm]
	ff := d.ff32[base*mlpH : (base+rows)*mlpH]

	// Input projection + positional embeddings.
	tensor.GemmF32(x, inf.inProj.W, inf.inProj.B, d.tok32[base*dim:(base+rows)*dim], rows, dim, dm)
	for i := lo; i < hi; i++ {
		slot, k, o := slots[i], ks[i], (d.rowOff[i]-base)*dm
		tensor.AxpyF32(x[o:o+k*dm], 1, inf.posEmb[d.pos[slot]*dm:(d.pos[slot]+k)*dm])
	}

	stride := 2 * dm
	slotKV := maxLen * stride
	for bi := range inf.blocks {
		b := &inf.blocks[bi]
		// Attention sub-layer (pre-norm, residual): project Q/K/V for the
		// whole shard, then per slot land K/V in its interleaved arena rows
		// and run the attention kernel per row over its own cache.
		layerNormRowsF32(tmp, x, dm, &b.ln1)
		tensor.GemmF32(q, b.wq.W, b.wq.B, tmp, rows, dm, dm)
		tensor.GemmF32(kk, b.wk.W, b.wk.B, tmp, rows, dm, dm)
		tensor.GemmF32(vv, b.wv.W, b.wv.B, tmp, rows, dm, dm)
		for i := lo; i < hi; i++ {
			slot, k, pos := slots[i], ks[i], d.pos[slots[i]]
			kv := d.kv32[(bi*d.capacity+slot)*slotKV : (bi*d.capacity+slot+1)*slotKV]
			scratch := d.attScratch32[slot*attW : (slot+1)*attW]
			for r := 0; r < k; r++ {
				o := (d.rowOff[i] - base + r) * dm
				kvRow := kv[(pos+r)*stride : (pos+r+1)*stride]
				copy(kvRow[:dm], kk[o:o+dm])
				copy(kvRow[dm:], vv[o:o+dm])
				// Causal: row r attends to exactly the cache through pos+r.
				tensor.AttendF32(att[o:o+dm], q[o:o+dm], kv, pos+r+1, b.heads, dm, scratch)
			}
		}
		tensor.GemmF32(tmp, b.wo.W, b.wo.B, att, rows, dm, dm)
		tensor.AxpyF32(x, 1, tmp) // residual: x += tmp

		// Feed-forward sub-layer (pre-norm, residual).
		layerNormRowsF32(tmp, x, dm, &b.ln2)
		tensor.GemmF32(ff, b.ffIn.W, b.ffIn.B, tmp, rows, dm, mlpH)
		tensor.GeluF32(ff)
		tensor.GemmF32(tmp, b.ffOut.W, b.ffOut.B, ff, rows, mlpH, dm)
		tensor.AxpyF32(x, 1, tmp) // residual: x += tmp
	}

	// Final norm, output heads, widening.
	layerNormRowsF32(tmp, x, dm, &inf.final)
	hid := d.hid32[base*hw : (base+rows)*hw]
	hid2 := d.hid232[base*hw : (base+rows)*hw]
	mlpRowsF32(d.evOut32[base*v:(base+rows)*v], hid, hid2, tmp, &inf.eventHd, rows)
	mlpRowsF32(d.iaOut32[base*iaW:(base+rows)*iaW], hid, hid2, tmp, &inf.iaHd, rows)
	mlpRowsF32(d.stopOut32[base*2:(base+rows)*2], hid, hid2, tmp, &inf.stopHd, rows)
	widenF32(d.evOut[base*v:], d.evOut32[base*v:(base+rows)*v])
	widenF32(d.iaOut[base*iaW:], d.iaOut32[base*iaW:(base+rows)*iaW])
	widenF32(d.stopOut[base*2:], d.stopOut32[base*2:(base+rows)*2])
	for row := base; row < base+rows; row++ {
		fillStepOut(&d.outs[row], m.Cfg.DistHead,
			d.evOut[row*v:(row+1)*v], d.iaOut[row*iaW:(row+1)*iaW], d.stopOut[row*2:(row+1)*2])
	}
	for i := lo; i < hi; i++ {
		d.pos[slots[i]] += ks[i]
	}
}

// mlpRowsF32 applies an exported MLP (ReLU between layers) to rows packed
// rows: every layer is one multi-row GEMM, intermediate activations ping-pong
// through hid/hid2 (each with room for rows × widest-layer values, packed at
// the layer's own width).
func mlpRowsF32(dst, hid, hid2 []float32, x []float32, m *nn.MLPF32, rows int) {
	cur := x
	last := len(m.Layers) - 1
	for i := range m.Layers {
		l := &m.Layers[i]
		var next []float32
		switch {
		case i == last:
			next = dst[:rows*l.Out]
		case i%2 == 0:
			next = hid[:rows*l.Out]
		default:
			next = hid2[:rows*l.Out]
		}
		tensor.GemmF32(next, l.W, l.B, cur, rows, l.In, l.Out)
		if i != last {
			for j := range next {
				if next[j] < 0 {
					next[j] = 0
				}
			}
		}
		cur = next
	}
}
