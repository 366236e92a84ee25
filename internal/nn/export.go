package nn

import "cptgpt/internal/tensor"

// Inference weight export: frozen float32 snapshots of trained layers for
// the decode. Training keeps float64 (the optimizer's precision
// contract is bit-exactness across batching), but autoregressive decoding is
// read-only and memory-bandwidth bound, so a one-time conversion into
// contiguous float32 panels roughly halves the traffic of every step.
//
// Linear weights are exported in the one layout the inference GEMM
// (tensor.GemmF32) reads: output panels of 16 (then 8, then the rest), each
// storing one input's weights for the panel's outputs contiguously (see
// tensor.PackF32). The conversion and the packing are one pass over the
// float64 weights. The snapshots share no storage with the live parameters:
// they are value copies, safe to read from any number of goroutines while
// the source model stays untouched.

// LinearF32 is a frozen float32 snapshot of a Linear layer. W is the in×out
// weight matrix in tensor.GemmF32's panel layout (see tensor.PackF32); B is
// the bias.
type LinearF32 struct {
	In, Out int
	W       []float32
	B       []float32
}

// ExportF32 freezes the layer into packed float32 panels.
func (l *Linear) ExportF32() LinearF32 {
	in, out := l.W.Rows, l.W.Cols
	e := LinearF32{In: in, Out: out, W: make([]float32, in*out), B: make([]float32, out)}
	tensor.PackF32(e.W, l.W.Data, in, out)
	for j, b := range l.B.Data {
		e.B[j] = float32(b)
	}
	return e
}

// LayerNormF32 is a frozen float32 snapshot of a LayerNorm.
type LayerNormF32 struct {
	Gain, Bias []float32
	Eps        float64
}

// ExportF32 freezes the layer norm's gain and bias.
func (l *LayerNorm) ExportF32() LayerNormF32 {
	e := LayerNormF32{
		Gain: make([]float32, len(l.Gain.Data)),
		Bias: make([]float32, len(l.Bias.Data)),
		Eps:  l.Eps,
	}
	for i, g := range l.Gain.Data {
		e.Gain[i] = float32(g)
	}
	for i, b := range l.Bias.Data {
		e.Bias[i] = float32(b)
	}
	return e
}

// MLPF32 is a frozen float32 snapshot of an MLP (ReLU between layers).
type MLPF32 struct {
	Layers []LinearF32
}

// ExportF32 freezes every layer of the MLP.
func (m *MLP) ExportF32() MLPF32 {
	e := MLPF32{Layers: make([]LinearF32, len(m.Layers))}
	for i, l := range m.Layers {
		e.Layers[i] = l.ExportF32()
	}
	return e
}
