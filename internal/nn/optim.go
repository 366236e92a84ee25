package nn

import (
	"math"

	"cptgpt/internal/tensor"
)

// Adam implements the Adam optimizer with optional global-norm gradient
// clipping, operating over a fixed parameter list captured at construction.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // ≤ 0 disables clipping

	params []*tensor.Tensor
	m      [][]float64
	v      [][]float64
	t      int
}

// NewAdam creates an Adam optimizer over params with the given learning
// rate, default betas (0.9, 0.999), eps 1e-8 and clip norm 1.0.
func NewAdam(params []*tensor.Tensor, lr float64) *Adam {
	a := &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 1.0,
		params: params,
		m:      make([][]float64, len(params)),
		v:      make([][]float64, len(params)),
	}
	for i, p := range params {
		a.m[i] = make([]float64, p.Numel())
		a.v[i] = make([]float64, p.Numel())
	}
	return a
}

// GradNorm returns the global L2 norm of all parameter gradients.
func (a *Adam) GradNorm() float64 {
	var sq float64
	for _, p := range a.params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	return math.Sqrt(sq)
}

// Step applies one Adam update using the accumulated gradients, then leaves
// gradients intact (call ZeroGrads before the next backward pass).
func (a *Adam) Step() {
	a.t++
	scale := 1.0
	if a.ClipNorm > 0 {
		if n := a.GradNorm(); n > a.ClipNorm {
			scale = a.ClipNorm / (n + 1e-12)
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		grad, data := p.Grad, p.Data
		// The update is elementwise (the only cross-element coupling, the
		// clip norm, is already folded into scale), so sharding it across
		// the tensor worker pool changes nothing about the result.
		tensor.ParallelFor(len(grad), 16, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				g := grad[j] * scale
				m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
				v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
				data[j] -= a.LR * (m[j] / bc1) / (math.Sqrt(v[j]/bc2) + a.Eps)
			}
		})
	}
}

// ZeroGrads clears all parameter gradients.
func (a *Adam) ZeroGrads() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}
