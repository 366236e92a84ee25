package nn

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"cptgpt/internal/tensor"
)

func newRNG() *rand.Rand { return rand.New(rand.NewPCG(7, 8)) }

// checkModuleGrads numerically verifies gradients of every parameter of a
// module under the given scalar loss.
func checkModuleGrads(t *testing.T, name string, params []*tensor.Tensor, loss func() *tensor.Tensor) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	loss().Backward()
	const h = 1e-6
	for pi, p := range params {
		analytic := make([]float64, len(p.Data))
		if p.Grad != nil {
			copy(analytic, p.Grad)
		}
		// Check a few sampled elements per parameter to keep runtime sane.
		step := len(p.Data)/5 + 1
		for i := 0; i < len(p.Data); i += step {
			orig := p.Data[i]
			p.Data[i] = orig + h
			up := loss().Data[0]
			p.Data[i] = orig - h
			down := loss().Data[0]
			p.Data[i] = orig
			numeric := (up - down) / (2 * h)
			diff := math.Abs(analytic[i] - numeric)
			scale := math.Max(1, math.Max(math.Abs(analytic[i]), math.Abs(numeric)))
			if diff/scale > 2e-4 {
				t.Fatalf("%s: param %d elem %d: analytic %g vs numeric %g", name, pi, i, analytic[i], numeric)
			}
		}
	}
}

func TestLinearForward(t *testing.T) {
	l := &Linear{
		W: tensor.FromSlice(2, 2, []float64{1, 2, 3, 4}).Param(),
		B: tensor.FromSlice(1, 2, []float64{10, 20}).Param(),
	}
	x := tensor.FromSlice(1, 2, []float64{1, 1})
	y := l.Forward(x)
	if y.Data[0] != 14 || y.Data[1] != 26 {
		t.Fatalf("Linear forward = %v, want [14 26]", y.Data)
	}
}

func TestAttentionGrads(t *testing.T) {
	rng := newRNG()
	att := NewCausalSelfAttention(8, 2, rng)
	x := tensor.Randn(5, 8, 1, rng).Param()
	params := append(att.Params(), x)
	checkModuleGrads(t, "attention", params, func() *tensor.Tensor {
		return tensor.Mean(att.Forward(x))
	})
}

func TestBlockGrads(t *testing.T) {
	rng := newRNG()
	b := NewBlock(8, 2, 16, rng)
	x := tensor.Randn(4, 8, 1, rng).Param()
	params := append(b.Params(), x)
	checkModuleGrads(t, "block", params, func() *tensor.Tensor {
		return tensor.Mean(b.Forward(x))
	})
}

func TestAttentionCausality(t *testing.T) {
	rng := newRNG()
	att := NewCausalSelfAttention(8, 2, rng)
	x := tensor.Randn(6, 8, 1, rng)
	y1 := att.Forward(x)

	// Perturb a *future* position; earlier outputs must not change.
	x2 := tensor.FromSlice(6, 8, append([]float64(nil), x.Data...))
	for j := 0; j < 8; j++ {
		x2.Set(5, j, x2.At(5, j)+3)
	}
	y2 := att.Forward(x2)
	for r := 0; r < 5; r++ {
		for c := 0; c < 8; c++ {
			if math.Abs(y1.At(r, c)-y2.At(r, c)) > 1e-12 {
				t.Fatalf("future token leaked into position %d", r)
			}
		}
	}
}

func TestLSTMGrads(t *testing.T) {
	rng := newRNG()
	cell := NewLSTMCell(4, 6, rng)
	x1 := tensor.Randn(2, 4, 1, rng)
	x2 := tensor.Randn(2, 4, 1, rng)
	checkModuleGrads(t, "lstm", cell.Params(), func() *tensor.Tensor {
		h, c := cell.ZeroState(2)
		h, c = cell.Step(x1, h, c)
		h, _ = cell.Step(x2, h, c)
		return tensor.Mean(h)
	})
}

func TestLSTMStateShapes(t *testing.T) {
	rng := newRNG()
	cell := NewLSTMCell(3, 5, rng)
	h, c := cell.ZeroState(4)
	x := tensor.Randn(4, 3, 1, rng)
	h2, c2 := cell.Step(x, h, c)
	if h2.Rows != 4 || h2.Cols != 5 || c2.Rows != 4 || c2.Cols != 5 {
		t.Fatalf("LSTM state shapes: h %dx%d c %dx%d", h2.Rows, h2.Cols, c2.Rows, c2.Cols)
	}
}

func TestMLPGrads(t *testing.T) {
	rng := newRNG()
	m := NewMLP(rng, 4, 8, 2)
	x := tensor.Randn(3, 4, 1, rng)
	checkModuleGrads(t, "mlp", m.Params(), func() *tensor.Tensor {
		return tensor.Mean(m.Forward(x))
	})
}

func TestAdamReducesLoss(t *testing.T) {
	rng := newRNG()
	// Fit y = 2x + 1 with a single linear layer.
	l := NewLinear(1, 1, rng)
	opt := NewAdam(l.Params(), 0.05)
	xs := tensor.FromSlice(8, 1, []float64{-2, -1.5, -1, -0.5, 0.5, 1, 1.5, 2})
	ys := make([]float64, 8)
	mask := make([]bool, 8)
	for i, x := range xs.Data {
		ys[i] = 2*x + 1
		mask[i] = true
	}
	var first, last float64
	for step := 0; step < 200; step++ {
		opt.ZeroGrads()
		loss := tensor.MSE(l.Forward(xs), ys, mask)
		if step == 0 {
			first = loss.Data[0]
		}
		last = loss.Data[0]
		loss.Backward()
		opt.Step()
	}
	if last > first/100 {
		t.Fatalf("Adam failed to fit line: first %v last %v", first, last)
	}
	if math.Abs(l.W.Data[0]-2) > 0.05 || math.Abs(l.B.Data[0]-1) > 0.05 {
		t.Fatalf("fitted W=%v B=%v, want 2 and 1", l.W.Data[0], l.B.Data[0])
	}
}

func TestAdamClipsGradients(t *testing.T) {
	p := tensor.FromSlice(1, 2, []float64{0, 0}).Param()
	p.Grad = []float64{100, 100}
	opt := NewAdam([]*tensor.Tensor{p}, 0.1)
	if n := opt.GradNorm(); math.Abs(n-math.Sqrt(20000)) > 1e-9 {
		t.Fatalf("GradNorm = %v", n)
	}
	opt.Step()
	// With clipping, the first Adam step magnitude is ≈ LR regardless of
	// raw gradient scale.
	for _, v := range p.Data {
		if math.Abs(v) > 0.2 {
			t.Fatalf("clipped step too large: %v", v)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rng := newRNG()
	m1 := NewMLP(rng, 3, 5, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, m1.Params()); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP(newRNG(), 3, 5, 2)
	// Perturb m2 so the load visibly restores m1's values.
	m2.Layers[0].W.Data[0] += 5
	if err := LoadParams(&buf, m2.Params()); err != nil {
		t.Fatal(err)
	}
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Data {
			if p1[i].Data[j] != p2[i].Data[j] {
				t.Fatalf("param %d elem %d differs after load", i, j)
			}
		}
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	rng := newRNG()
	m1 := NewMLP(rng, 3, 5, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, m1.Params()); err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP(rng, 3, 6, 2) // different hidden size
	if err := LoadParams(&buf, m2.Params()); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestCopyParams(t *testing.T) {
	rng := newRNG()
	a := NewMLP(rng, 2, 3, 1)
	b := NewMLP(rng, 2, 3, 1)
	if err := CopyParams(b.Params(), a.Params()); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatal("CopyParams did not copy")
			}
		}
	}
	c := NewMLP(rng, 2, 4, 1)
	if err := CopyParams(c.Params(), a.Params()); err == nil {
		t.Fatal("expected error for mismatched shapes")
	}
}

func TestNumParams(t *testing.T) {
	rng := newRNG()
	m := NewMLP(rng, 3, 5, 2) // 3*5+5 + 5*2+2 = 32
	if n := NumParams(m.Params()); n != 32 {
		t.Fatalf("NumParams = %d, want 32", n)
	}
}
