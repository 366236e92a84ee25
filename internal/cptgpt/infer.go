package cptgpt

import (
	"math"

	"cptgpt/internal/nn"
)

// decoder is a tape-free incremental forward pass over the model with
// per-block key/value caching. Autoregressive sampling recomputes only one
// token per step instead of the whole prefix, which is what makes the
// scalability experiment (Figure 6) tractable on a CPU. Its output is
// verified against Model.Forward in the package tests.
//
// The decoder owns all of its scratch, so a step performs no allocations in
// steady state. It is also the F64 BatchDecoder's row body: each F64 slot
// is one decoder (batch.go).
type decoder struct {
	m   *Model
	pos int
	// kc/vc hold, per block, the cached keys/values: pos rows × DModel,
	// pre-sized to MaxLen rows so appends never reallocate.
	kc [][]float64
	vc [][]float64
	// scratch buffers reused across steps
	x, q, k, v, att, tmp []float64
	ff                   []float64
	scores               []float64 // attention weights over cached positions
	hid, hid2            []float64 // MLP-head hidden activations (ping-pong)
	evOut                []float64 // event-head output (V logits)
	iaOut                []float64 // interarrival-head output (1 or 2)
	stopOut              []float64 // stop-head output (2 logits)
}

// newDecoder creates an incremental decoder for m.
func newDecoder(m *Model) *decoder {
	d := &decoder{m: m}
	dm := m.Cfg.DModel
	d.kc = make([][]float64, len(m.BlocksNN))
	d.vc = make([][]float64, len(m.BlocksNN))
	for i := range d.kc {
		d.kc[i] = make([]float64, 0, m.Cfg.MaxLen*dm)
		d.vc[i] = make([]float64, 0, m.Cfg.MaxLen*dm)
	}
	d.x = make([]float64, dm)
	d.q = make([]float64, dm)
	d.k = make([]float64, dm)
	d.v = make([]float64, dm)
	d.att = make([]float64, dm)
	d.tmp = make([]float64, dm)
	d.ff = make([]float64, m.Cfg.MLPHidden)
	d.scores = make([]float64, m.Cfg.MaxLen)
	d.hid = make([]float64, headHiddenMax(m))
	d.hid2 = make([]float64, headHiddenMax(m))
	d.evOut = make([]float64, m.Tok.V())
	d.iaOut = make([]float64, m.IAHd.Layers[len(m.IAHd.Layers)-1].W.Cols)
	d.stopOut = make([]float64, 2)
	return d
}

// headHiddenMax returns the widest intermediate layer across the three
// output heads, sizing the shared hidden scratch.
func headHiddenMax(m *Model) int {
	w := 1
	for _, h := range []*nn.MLP{m.EventHd, m.IAHd, m.StopHd} {
		for _, l := range h.Layers {
			if l.W.Cols > w {
				w = l.W.Cols
			}
		}
	}
	return w
}

// StepOut carries the raw head outputs of one decode step for one stream.
// EventLogits aliases decoder-owned scratch and is valid only until the
// next step of the same decoder (or decoder slot).
type StepOut struct {
	EventLogits []float64
	IAMean      float64
	IALogStd    float64 // NaN when the distribution head is disabled
	StopLogits  [2]float64
}

// step consumes one token (d_token values) and returns the head outputs at
// the new position. It panics if the position exceeds MaxLen.
func (d *decoder) step(token []float64) StepOut {
	m := d.m
	dm := m.Cfg.DModel
	if d.pos >= m.Cfg.MaxLen {
		panic("cptgpt: decoder stepped past MaxLen")
	}

	// Token projection + positional embedding.
	linearRowInto(d.x, token, m.InProj)
	pe := m.PosEmb.Data[d.pos*dm : (d.pos+1)*dm]
	for i := range d.x {
		d.x[i] += pe[i]
	}

	tmp := d.tmp
	for bi, b := range m.BlocksNN {
		// Attention sub-layer (pre-norm, residual).
		layerNormRow(tmp, d.x, b.LN1)
		linearRowInto(d.q, tmp, b.Attn.Wq)
		linearRowInto(d.k, tmp, b.Attn.Wk)
		linearRowInto(d.v, tmp, b.Attn.Wv)
		d.kc[bi] = append(d.kc[bi], d.k...)
		d.vc[bi] = append(d.vc[bi], d.v...)
		attendRow(d.att, d.q, d.kc[bi], d.vc[bi], d.pos+1, b.Attn.Heads, dm, d.scores)
		linearRowInto(tmp, d.att, b.Attn.Wo)
		for i := range d.x {
			d.x[i] += tmp[i]
		}

		// Feed-forward sub-layer (pre-norm, residual).
		layerNormRow(tmp, d.x, b.LN2)
		linearRowInto(d.ff, tmp, b.FF.In)
		for i := range d.ff {
			d.ff[i] = gelu(d.ff[i])
		}
		linearRowInto(tmp, d.ff, b.FF.Out)
		for i := range d.x {
			d.x[i] += tmp[i]
		}
	}

	layerNormRow(tmp, d.x, m.Final)

	mlpRowInto(d.evOut, d.hid, d.hid2, tmp, m.EventHd)
	mlpRowInto(d.iaOut, d.hid, d.hid2, tmp, m.IAHd)
	mlpRowInto(d.stopOut, d.hid, d.hid2, tmp, m.StopHd)
	var out StepOut
	fillStepOut(&out, m.Cfg.DistHead, d.evOut, d.iaOut, d.stopOut)

	d.pos++
	return out
}

// rewind moves the decoder back to position pos ≤ its own, dropping the
// cached keys/values above it (they are overwritten, never cleared).
func (d *decoder) rewind(pos int) {
	dm := d.m.Cfg.DModel
	for i := range d.kc {
		d.kc[i], d.vc[i] = d.kc[i][:pos*dm], d.vc[i][:pos*dm]
	}
	d.pos = pos
}

// attendRow computes one stream's multi-head attention output for the newest
// query row q against nPos cached key/value rows, writing into att (len dm),
// with scores (len ≥ nPos) as scratch. Its one caller is decoder.step, which
// bounds nPos by MaxLen; an F64 BatchDecoder slot is a serial decoder, so
// this is the F64 attention of both.
func attendRow(att, q, kc, vc []float64, nPos, heads, dm int, scores []float64) {
	dh := dm / heads
	scale := 1 / math.Sqrt(float64(dh))
	scores = scores[:nPos]
	for h := 0; h < heads; h++ {
		lo := h * dh
		maxv := math.Inf(-1)
		for t := 0; t < nPos; t++ {
			kRow := kc[t*dm+lo : t*dm+lo+dh]
			var s float64
			for j := 0; j < dh; j++ {
				s += q[lo+j] * kRow[j]
			}
			s *= scale
			scores[t] = s
			if s > maxv {
				maxv = s
			}
		}
		var sum float64
		for t := range scores {
			scores[t] = math.Exp(scores[t] - maxv)
			sum += scores[t]
		}
		inv := 1 / sum
		for j := 0; j < dh; j++ {
			att[lo+j] = 0
		}
		for t := 0; t < nPos; t++ {
			w := scores[t] * inv
			vRow := vc[t*dm+lo : t*dm+lo+dh]
			for j := 0; j < dh; j++ {
				att[lo+j] += w * vRow[j]
			}
		}
	}
}

// linearRowInto computes dst = row·W + b for a single row; dst must have
// length = l.W.Cols and may not alias row. The inner loop updates four
// outputs per bounds check; each output still takes one multiply and one
// add per input, in input order, so unrolling moves no bits. It also keeps
// the function too large to inline, so the serial decoder and every caller
// run the one compiled loop.
func linearRowInto(dst, row []float64, l *nn.Linear) {
	cols := l.W.Cols
	dst = dst[:cols]
	copy(dst, l.B.Data)
	for k, x := range row {
		if x == 0 {
			continue
		}
		wRow := l.W.Data[k*cols:][:cols]
		j := 0
		for ; j+4 <= cols; j += 4 {
			d, w := dst[j:j+4:j+4], wRow[j:j+4:j+4]
			d[0] += x * w[0]
			d[1] += x * w[1]
			d[2] += x * w[2]
			d[3] += x * w[3]
		}
		for ; j < cols; j++ {
			dst[j] += x * wRow[j]
		}
	}
}

// layerNormRow computes dst = LN(row) with l's gain and bias.
func layerNormRow(dst, row []float64, l *nn.LayerNorm) {
	n := float64(len(row))
	var mu float64
	for _, v := range row {
		mu += v
	}
	mu /= n
	var va float64
	for _, v := range row {
		d := v - mu
		va += d * d
	}
	va /= n
	istd := 1 / math.Sqrt(va+l.Eps)
	for i, v := range row {
		dst[i] = (v-mu)*istd*l.Gain.Data[i] + l.Bias.Data[i]
	}
}

// mlpRowInto applies an MLP (ReLU between layers) to a single row, writing
// the final layer into dst (len = last layer width). hid and hid2 are
// ping-pong scratch, each wide enough for every intermediate layer (they
// keep consecutive layers from aliasing); row is never modified.
func mlpRowInto(dst, hid, hid2, row []float64, m *nn.MLP) {
	cur := row
	last := len(m.Layers) - 1
	for i, l := range m.Layers {
		var next []float64
		switch {
		case i == last:
			next = dst[:l.W.Cols]
		case i%2 == 0:
			next = hid[:l.W.Cols]
		default:
			next = hid2[:l.W.Cols]
		}
		linearRowInto(next, cur, l)
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

func gelu(x float64) float64 {
	const c = 0.7978845608028654
	return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
}
