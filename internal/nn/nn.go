// Package nn provides the neural-network layers, optimizer and checkpoint
// machinery shared by the CPT-GPT transformer and the NetShare GAN/LSTM
// baseline: linear and layer-norm layers, causal multi-head self-attention,
// transformer decoder blocks, an LSTM cell, Adam with gradient clipping,
// and gob-based parameter (de)serialization.
//
// Every constructor that takes an rng draws its initial weights from it; a
// nil rng leaves them zero (see tensor.Randn), for a model whose values a
// file or another model is about to overwrite.
package nn

import (
	"fmt"
	"math"
	"math/rand/v2"

	"cptgpt/internal/tensor"
)

// Module is anything exposing trainable parameters in a stable order.
type Module interface {
	Params() []*tensor.Tensor
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W *tensor.Tensor // in×out
	B *tensor.Tensor // 1×out
}

// NewLinear creates a Linear with Xavier/Glorot-normal initialization.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	std := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		W: tensor.Randn(in, out, std, rng).Param(),
		B: tensor.New(1, out).Param(),
	}
}

// Forward applies the layer to x (n×in) returning n×out.
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.Add(tensor.MatMul(x, l.W), l.B)
}

// Params returns [W, B].
func (l *Linear) Params() []*tensor.Tensor { return []*tensor.Tensor{l.W, l.B} }

// LayerNorm is a row-wise layer normalization with learned gain and bias.
type LayerNorm struct {
	Gain *tensor.Tensor
	Bias *tensor.Tensor
	Eps  float64
}

// NewLayerNorm creates a LayerNorm over dim columns (gain 1, bias 0).
func NewLayerNorm(dim int) *LayerNorm {
	g := tensor.New(1, dim)
	for i := range g.Data {
		g.Data[i] = 1
	}
	return &LayerNorm{Gain: g.Param(), Bias: tensor.New(1, dim).Param(), Eps: 1e-5}
}

// Forward normalizes x row-wise.
func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	return tensor.LayerNorm(x, l.Gain, l.Bias, l.Eps)
}

// Params returns [Gain, Bias].
func (l *LayerNorm) Params() []*tensor.Tensor { return []*tensor.Tensor{l.Gain, l.Bias} }

// CausalSelfAttention is multi-head scaled dot-product attention with a
// causal mask, operating on a T×d sequence (one stream at a time, matching
// the paper's per-UE stream inference).
type CausalSelfAttention struct {
	Heads int
	Dim   int
	Wq    *Linear
	Wk    *Linear
	Wv    *Linear
	Wo    *Linear
}

// NewCausalSelfAttention creates attention over dim columns split across
// heads; dim must be divisible by heads.
func NewCausalSelfAttention(dim, heads int, rng *rand.Rand) *CausalSelfAttention {
	if heads <= 0 || dim%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by heads %d", dim, heads))
	}
	return &CausalSelfAttention{
		Heads: heads,
		Dim:   dim,
		Wq:    NewLinear(dim, dim, rng),
		Wk:    NewLinear(dim, dim, rng),
		Wv:    NewLinear(dim, dim, rng),
		Wo:    NewLinear(dim, dim, rng),
	}
}

// Forward computes attention over x (T×dim) and returns T×dim.
func (a *CausalSelfAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	q := a.Wq.Forward(x)
	k := a.Wk.Forward(x)
	v := a.Wv.Forward(x)
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	heads := make([]*tensor.Tensor, a.Heads)
	for h := 0; h < a.Heads; h++ {
		lo, hi := h*dh, (h+1)*dh
		qh := tensor.SliceCols(q, lo, hi)
		kh := tensor.SliceCols(k, lo, hi)
		vh := tensor.SliceCols(v, lo, hi)
		scores := tensor.Scale(tensor.MatMul(qh, tensor.Transpose(kh)), scale)
		att := tensor.CausalSoftmax(scores)
		heads[h] = tensor.MatMul(att, vh)
	}
	return a.Wo.Forward(tensor.ConcatCols(heads...))
}

// ForwardPacked computes attention over a packed minibatch: x is the
// row-wise concatenation of B independent sequences ("segments") and bounds
// holds the B+1 segment offsets (bounds[s] .. bounds[s+1] is segment s).
// The effective mask is block-diagonal causal — position i attends only to
// j ≤ i within its own segment — realized segment-wise so the cross-segment
// score blocks (all zero under the mask) are never materialized; the cost
// stays Σ Tₛ² instead of (Σ Tₛ)².
//
// The Q/K/V/O projections run once over the whole packed batch, which is
// where the minibatch speedup comes from; per-segment results are
// bit-identical to running Forward on each segment alone.
func (a *CausalSelfAttention) ForwardPacked(x *tensor.Tensor, bounds []int) *tensor.Tensor {
	if len(bounds) < 2 || bounds[0] != 0 || bounds[len(bounds)-1] != x.Rows {
		panic(fmt.Sprintf("nn: ForwardPacked bounds %v do not cover %d rows", bounds, x.Rows))
	}
	q := a.Wq.Forward(x)
	k := a.Wk.Forward(x)
	v := a.Wv.Forward(x)
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	segs := len(bounds) - 1
	heads := make([]*tensor.Tensor, a.Heads)
	parts := make([]*tensor.Tensor, segs)
	for h := 0; h < a.Heads; h++ {
		lo, hi := h*dh, (h+1)*dh
		qh := tensor.SliceCols(q, lo, hi)
		kh := tensor.SliceCols(k, lo, hi)
		vh := tensor.SliceCols(v, lo, hi)
		for s := 0; s < segs; s++ {
			sl, sh := bounds[s], bounds[s+1]
			if sl >= sh {
				panic(fmt.Sprintf("nn: ForwardPacked empty segment %d", s))
			}
			qs := tensor.SliceRows(qh, sl, sh)
			ks := tensor.SliceRows(kh, sl, sh)
			vs := tensor.SliceRows(vh, sl, sh)
			scores := tensor.Scale(tensor.MatMul(qs, tensor.Transpose(ks)), scale)
			parts[s] = tensor.MatMul(tensor.CausalSoftmax(scores), vs)
		}
		if segs == 1 {
			heads[h] = parts[0]
		} else {
			heads[h] = tensor.ConcatRows(parts...)
		}
	}
	return a.Wo.Forward(tensor.ConcatCols(heads...))
}

// Params returns the projection parameters.
func (a *CausalSelfAttention) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, m := range []*Linear{a.Wq, a.Wk, a.Wv, a.Wo} {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// FeedForward is the position-wise MLP of a transformer block
// (Linear → GELU → Linear).
type FeedForward struct {
	In  *Linear
	Out *Linear
}

// NewFeedForward creates an MLP dim → hidden → dim.
func NewFeedForward(dim, hidden int, rng *rand.Rand) *FeedForward {
	return &FeedForward{In: NewLinear(dim, hidden, rng), Out: NewLinear(hidden, dim, rng)}
}

// Forward applies the MLP row-wise.
func (f *FeedForward) Forward(x *tensor.Tensor) *tensor.Tensor {
	return f.Out.Forward(tensor.GELU(f.In.Forward(x)))
}

// Params returns the two linear layers' parameters.
func (f *FeedForward) Params() []*tensor.Tensor {
	return append(f.In.Params(), f.Out.Params()...)
}

// Block is a pre-norm transformer decoder block:
// x ← x + Attn(LN₁(x)); x ← x + FF(LN₂(x)).
type Block struct {
	LN1  *LayerNorm
	Attn *CausalSelfAttention
	LN2  *LayerNorm
	FF   *FeedForward
}

// NewBlock creates a decoder block with the given width, head count and MLP
// hidden size (the paper's model uses 2 blocks, width 128, hidden 1024).
func NewBlock(dim, heads, hidden int, rng *rand.Rand) *Block {
	return &Block{
		LN1:  NewLayerNorm(dim),
		Attn: NewCausalSelfAttention(dim, heads, rng),
		LN2:  NewLayerNorm(dim),
		FF:   NewFeedForward(dim, hidden, rng),
	}
}

// Forward applies the block to x (T×dim).
func (b *Block) Forward(x *tensor.Tensor) *tensor.Tensor {
	x = tensor.Add(x, b.Attn.Forward(b.LN1.Forward(x)))
	return tensor.Add(x, b.FF.Forward(b.LN2.Forward(x)))
}

// ForwardPacked applies the block to a packed minibatch of segments (see
// CausalSelfAttention.ForwardPacked). LayerNorm and the MLP are row-wise, so
// only attention needs the segment bounds.
func (b *Block) ForwardPacked(x *tensor.Tensor, bounds []int) *tensor.Tensor {
	x = tensor.Add(x, b.Attn.ForwardPacked(b.LN1.Forward(x), bounds))
	return tensor.Add(x, b.FF.Forward(b.LN2.Forward(x)))
}

// Params returns all block parameters.
func (b *Block) Params() []*tensor.Tensor {
	ps := b.LN1.Params()
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.FF.Params()...)
	return ps
}

// MLP is a general multi-layer perceptron with ReLU activations between
// layers, used by the output heads and the GAN discriminator.
type MLP struct {
	Layers []*Linear
}

// NewMLP creates an MLP through the given layer sizes, e.g. (9, 64, 1).
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(sizes[i], sizes[i+1], rng))
	}
	return m
}

// Forward applies the MLP with ReLU between layers (none after the last).
func (m *MLP) Forward(x *tensor.Tensor) *tensor.Tensor {
	for i, l := range m.Layers {
		x = l.Forward(x)
		if i+1 < len(m.Layers) {
			x = tensor.ReLU(x)
		}
	}
	return x
}

// Params returns all layer parameters.
func (m *MLP) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// LSTMCell is a standard long short-term memory cell. It is the sequence
// model of the NetShare baseline (the paper's L4 discusses its forgetting
// behaviour over long streams).
type LSTMCell struct {
	In     int
	Hidden int
	Wx     *tensor.Tensor // In×4H, gate order [i f g o]
	Wh     *tensor.Tensor // H×4H
	B      *tensor.Tensor // 1×4H
}

// NewLSTMCell creates an LSTM cell with forget-gate bias initialized to 1.
func NewLSTMCell(in, hidden int, rng *rand.Rand) *LSTMCell {
	std := math.Sqrt(1.0 / float64(hidden))
	c := &LSTMCell{
		In:     in,
		Hidden: hidden,
		Wx:     tensor.Randn(in, 4*hidden, std, rng).Param(),
		Wh:     tensor.Randn(hidden, 4*hidden, std, rng).Param(),
		B:      tensor.New(1, 4*hidden).Param(),
	}
	for j := hidden; j < 2*hidden; j++ { // forget gate bias = 1
		c.B.Data[j] = 1
	}
	return c
}

// Step advances the cell: given input x (n×In) and state (h, c) (n×Hidden),
// it returns the next (h, c).
func (l *LSTMCell) Step(x, h, c *tensor.Tensor) (hNext, cNext *tensor.Tensor) {
	z := tensor.Add(tensor.Add(tensor.MatMul(x, l.Wx), tensor.MatMul(h, l.Wh)), l.B)
	hn := l.Hidden
	i := tensor.Sigmoid(tensor.SliceCols(z, 0, hn))
	f := tensor.Sigmoid(tensor.SliceCols(z, hn, 2*hn))
	g := tensor.Tanh(tensor.SliceCols(z, 2*hn, 3*hn))
	o := tensor.Sigmoid(tensor.SliceCols(z, 3*hn, 4*hn))
	cNext = tensor.Add(tensor.Mul(f, c), tensor.Mul(i, g))
	hNext = tensor.Mul(o, tensor.Tanh(cNext))
	return hNext, cNext
}

// ZeroState returns zero-valued (h, c) for a batch of n sequences.
func (l *LSTMCell) ZeroState(n int) (h, c *tensor.Tensor) {
	return tensor.New(n, l.Hidden), tensor.New(n, l.Hidden)
}

// Params returns [Wx, Wh, B].
func (l *LSTMCell) Params() []*tensor.Tensor { return []*tensor.Tensor{l.Wx, l.Wh, l.B} }
