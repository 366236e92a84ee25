package cptgpt

import (
	"fmt"
	"math/rand/v2"

	"cptgpt/internal/tensor"
)

// PackedBatch is a multi-stream training minibatch: B encoded streams
// concatenated row-wise into one (ΣTₛ × d_token) matrix, with segment
// bounds for the block-diagonal causal attention mask and per-row position
// indices for the positional-embedding lookup. Packing B streams into one
// forward amortizes kernel dispatch and worker fan-out over the whole batch
// and feeds the pool ΣTₛ rows per op instead of Tₛ — the core of the packed
// minibatch trainer.
type PackedBatch struct {
	// Tokens is the ΣTₛ×d_token input matrix (streams stacked in order),
	// built in the step's arena: it and the tape derived from it die at the
	// arena's next Reset.
	Tokens *tensor.Tensor
	// Bounds holds the B+1 segment offsets; stream s spans rows
	// Bounds[s]..Bounds[s+1].
	Bounds []int
	// PosIdx maps each packed row to its within-stream position (0..Tₛ-1).
	PosIdx []int
	// Targets holds the per-stream next-token targets, in segment order.
	Targets []*Targets
}

// PackStreams builds a PackedBatch in arena a (the heap when a is nil) from
// encoded streams (EncodeStream outputs). Streams are stacked in argument
// order; that order is load-bearing for bit-exact equivalence with
// per-stream training, because every row-serial reduction in the tape then
// adds the same terms in the same order as the per-stream passes did.
func PackStreams(a *tensor.Arena, ins []*tensor.Tensor, tgs []*Targets) *PackedBatch {
	if len(ins) == 0 || len(ins) != len(tgs) {
		panic(fmt.Sprintf("cptgpt: PackStreams got %d inputs and %d targets", len(ins), len(tgs)))
	}
	d := ins[0].Cols
	total := 0
	for _, in := range ins {
		if in.Cols != d {
			panic("cptgpt: PackStreams token-dimension mismatch")
		}
		total += in.Rows
	}
	pb := &PackedBatch{
		Tokens:  a.New(total, d),
		Bounds:  make([]int, 1, len(ins)+1),
		PosIdx:  make([]int, 0, total),
		Targets: tgs,
	}
	off := 0
	for _, in := range ins {
		copy(pb.Tokens.Data[off*d:], in.Data)
		for p := 0; p < in.Rows; p++ {
			pb.PosIdx = append(pb.PosIdx, p)
		}
		off += in.Rows
		pb.Bounds = append(pb.Bounds, off)
	}
	return pb
}

// Streams returns the number of packed streams.
func (pb *PackedBatch) Streams() int { return len(pb.Bounds) - 1 }

// Rows returns the total packed row (token) count.
func (pb *PackedBatch) Rows() int { return pb.Bounds[len(pb.Bounds)-1] }

// ForwardPacked runs the network over a packed minibatch and returns the
// head outputs for every packed row. Per-stream rows are bit-identical to
// Forward on each stream alone: the linear layers, layer norms and heads
// are row-wise, attention is computed segment-wise under the block-diagonal
// causal mask, and the positional embedding is added per row.
//
// When dropRng is non-nil dropout is active; the mask is drawn over the
// packed matrix in row-major order, which for more than one stream differs
// from the per-stream draw order — so with dropout a packed multi-stream
// step is statistically, not bitwise, equivalent to per-stream Forwards.
func (m *Model) ForwardPacked(pb *PackedBatch, dropRng *rand.Rand) (*Heads, error) {
	for s := 0; s < pb.Streams(); s++ {
		if t := pb.Bounds[s+1] - pb.Bounds[s]; t > m.Cfg.MaxLen {
			return nil, fmt.Errorf("cptgpt: packed stream %d length %d exceeds MaxLen %d", s, t, m.Cfg.MaxLen)
		}
	}
	x := m.InProj.Forward(pb.Tokens)
	x = tensor.AddRows(x, m.PosEmb, pb.PosIdx)
	for _, b := range m.BlocksNN {
		x = b.ForwardPacked(x, pb.Bounds)
		if m.Cfg.Dropout > 0 && dropRng != nil {
			x = tensor.Dropout(x, m.Cfg.Dropout, dropRng)
		}
	}
	x = m.Final.Forward(x)
	return m.headsOf(x), nil
}

// sliceHeads restricts packed head outputs to one segment's rows.
func sliceHeads(h *Heads, lo, hi int) *Heads {
	out := &Heads{
		EventLogits: tensor.SliceRows(h.EventLogits, lo, hi),
		IAMean:      tensor.SliceRows(h.IAMean, lo, hi),
		StopLogits:  tensor.SliceRows(h.StopLogits, lo, hi),
	}
	if h.IALogStd != nil {
		out.IALogStd = tensor.SliceRows(h.IALogStd, lo, hi)
	}
	return out
}

// LossPacked computes the per-stream training losses of a packed forward
// and combines them into one scalar, re-weighting stream s by
// rows_s/meanTokens, as a per-stream pass would scale each stream's
// backward pass (Scale by the same factor). It returns the combined loss plus the raw (unweighted)
// per-stream loss values for epoch accounting.
func (m *Model) LossPacked(h *Heads, pb *PackedBatch, meanTokens float64) (total *tensor.Tensor, perStream []float64) {
	n := pb.Streams()
	losses := make([]*tensor.Tensor, n)
	weights := make([]float64, n)
	perStream = make([]float64, n)
	for s := 0; s < n; s++ {
		lo, hi := pb.Bounds[s], pb.Bounds[s+1]
		ls := m.Loss(sliceHeads(h, lo, hi), pb.Targets[s])
		losses[s] = ls
		weights[s] = float64(hi-lo) / meanTokens
		perStream[s] = ls.Data[0]
	}
	return tensor.AddScalars(weights, losses...), perStream
}
