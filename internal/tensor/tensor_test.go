package tensor

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func newRNG() *rand.Rand { return rand.New(rand.NewPCG(42, 43)) }

// numericalGrad estimates ∂loss/∂p.Data[i] by central differences, where
// loss is recomputed from scratch by f.
func numericalGrad(t *testing.T, p *Tensor, f func() float64) []float64 {
	t.Helper()
	const h = 1e-6
	grads := make([]float64, len(p.Data))
	for i := range p.Data {
		orig := p.Data[i]
		p.Data[i] = orig + h
		up := f()
		p.Data[i] = orig - h
		down := f()
		p.Data[i] = orig
		grads[i] = (up - down) / (2 * h)
	}
	return grads
}

// checkGrads compares analytic gradients against numerical ones.
func checkGrads(t *testing.T, name string, params []*Tensor, loss func() *Tensor) {
	t.Helper()
	l := loss()
	l.Backward()
	for pi, p := range params {
		analytic := make([]float64, len(p.Data))
		copy(analytic, p.Grad)
		numeric := numericalGrad(t, p, func() float64 { return loss().Data[0] })
		for i := range analytic {
			diff := math.Abs(analytic[i] - numeric[i])
			scale := math.Max(1, math.Max(math.Abs(analytic[i]), math.Abs(numeric[i])))
			if diff/scale > 1e-4 {
				t.Fatalf("%s: param %d elem %d: analytic %g vs numeric %g", name, pi, i, analytic[i], numeric[i])
			}
		}
	}
}

// TestRandnNilRNG: a nil rng draws nothing and leaves the tensor zero; a
// real one fills it.
func TestRandnNilRNG(t *testing.T) {
	z := Randn(3, 4, 1, nil)
	if z.Rows != 3 || z.Cols != 4 || len(z.Data) != 12 {
		t.Fatalf("shape %d×%d with %d values", z.Rows, z.Cols, len(z.Data))
	}
	for _, v := range z.Data {
		if v != 0 {
			t.Fatalf("nil rng drew %v", v)
		}
	}
	if r := Randn(3, 4, 1, newRNG()); r.Data[0] == 0 {
		t.Fatal("a seeded rng drew a zero first value")
	}
}

func TestMatMulForward(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(3, 4, 1, rng).Param()
	b := Randn(4, 2, 1, rng).Param()
	checkGrads(t, "matmul", []*Tensor{a, b}, func() *Tensor {
		return Mean(MatMul(a, b))
	})
}

func TestAddBroadcastGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(3, 4, 1, rng).Param()
	b := Randn(1, 4, 1, rng).Param()
	checkGrads(t, "add_bcast", []*Tensor{a, b}, func() *Tensor {
		return Mean(Add(a, b))
	})
}

func TestMulScaleGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(2, 3, 1, rng).Param()
	b := Randn(2, 3, 1, rng).Param()
	checkGrads(t, "mul+scale", []*Tensor{a, b}, func() *Tensor {
		return Mean(Scale(Mul(a, b), 2.5))
	})
}

func TestTransposeGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(2, 5, 1, rng).Param()
	w := Randn(2, 3, 1, rng)
	checkGrads(t, "transpose", []*Tensor{a}, func() *Tensor {
		return Mean(MatMul(Transpose(a), w))
	})
}

func TestSliceConcatGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(3, 6, 1, rng).Param()
	checkGrads(t, "slice+concat", []*Tensor{a}, func() *Tensor {
		left := SliceCols(a, 0, 3)
		right := SliceCols(a, 3, 6)
		return Mean(Mul(ConcatCols(right, left), ConcatCols(left, right)))
	})
}

func TestSliceRowsGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(5, 3, 1, rng).Param()
	checkGrads(t, "slice_rows", []*Tensor{a}, func() *Tensor {
		return Mean(SliceRows(a, 1, 4))
	})
}

func TestUnaryOpsGrad(t *testing.T) {
	rng := newRNG()
	for _, tc := range []struct {
		name string
		fn   func(*Tensor) *Tensor
	}{
		{"relu", ReLU},
		{"gelu", GELU},
		{"tanh", Tanh},
		{"sigmoid", Sigmoid},
		{"exp", Exp},
	} {
		a := Randn(3, 4, 0.8, rng).Param()
		checkGrads(t, tc.name, []*Tensor{a}, func() *Tensor {
			return Mean(tc.fn(a))
		})
	}
}

func TestSoftmaxGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(3, 5, 1, rng).Param()
	w := Randn(3, 5, 1, rng)
	checkGrads(t, "softmax", []*Tensor{a}, func() *Tensor {
		return Mean(Mul(Softmax(a), w))
	})
}

func TestCausalSoftmaxGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(4, 4, 1, rng).Param()
	w := Randn(4, 4, 1, rng)
	checkGrads(t, "causal_softmax", []*Tensor{a}, func() *Tensor {
		return Mean(Mul(CausalSoftmax(a), w))
	})
}

func TestCausalSoftmaxMasking(t *testing.T) {
	rng := newRNG()
	a := Randn(4, 4, 1, rng)
	y := CausalSoftmax(a)
	for i := 0; i < 4; i++ {
		var sum float64
		for j := 0; j < 4; j++ {
			v := y.At(i, j)
			if j > i && v != 0 {
				t.Fatalf("masked entry (%d,%d) = %v, want 0", i, j, v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v, want 1", i, sum)
		}
	}
}

func TestLayerNormGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(3, 4, 1, rng).Param()
	gain := Randn(1, 4, 0.5, rng).Param()
	bias := Randn(1, 4, 0.5, rng).Param()
	w := Randn(3, 4, 1, rng)
	checkGrads(t, "layernorm", []*Tensor{a, gain, bias}, func() *Tensor {
		return Mean(Mul(LayerNorm(a, gain, bias, 1e-5), w))
	})
}

func TestCrossEntropyGrad(t *testing.T) {
	rng := newRNG()
	logits := Randn(4, 3, 1, rng).Param()
	targets := []int{0, 2, -1, 1} // one masked row
	checkGrads(t, "cross_entropy", []*Tensor{logits}, func() *Tensor {
		return CrossEntropy(logits, targets)
	})
}

func TestGaussianNLLGrad(t *testing.T) {
	rng := newRNG()
	mean := Randn(4, 1, 1, rng).Param()
	logStd := Randn(4, 1, 0.3, rng).Param()
	targets := []float64{0.5, -0.2, 0.8, 0.1}
	mask := []bool{true, true, false, true}
	checkGrads(t, "gaussian_nll", []*Tensor{mean, logStd}, func() *Tensor {
		return GaussianNLL(mean, logStd, targets, mask)
	})
}

func TestMSEGrad(t *testing.T) {
	rng := newRNG()
	pred := Randn(4, 1, 1, rng).Param()
	targets := []float64{0.5, -0.2, 0.8, 0.1}
	mask := []bool{true, false, true, true}
	checkGrads(t, "mse", []*Tensor{pred}, func() *Tensor {
		return MSE(pred, targets, mask)
	})
}

func TestBCEWithLogitsGrad(t *testing.T) {
	rng := newRNG()
	logits := Randn(4, 1, 1.5, rng).Param()
	targets := []float64{1, 0, 1, 0}
	checkGrads(t, "bce", []*Tensor{logits}, func() *Tensor {
		return BCEWithLogits(logits, targets)
	})
}

func TestAddScalarsGrad(t *testing.T) {
	rng := newRNG()
	a := Randn(2, 2, 1, rng).Param()
	b := Randn(2, 2, 1, rng).Param()
	checkGrads(t, "add_scalars", []*Tensor{a, b}, func() *Tensor {
		return AddScalars([]float64{2, 0.5}, Mean(a), Sum(b))
	})
}

func TestClampGrad(t *testing.T) {
	a := FromSlice(1, 4, []float64{-2, -0.5, 0.5, 2}).Param()
	checkGrads(t, "clamp", []*Tensor{a}, func() *Tensor {
		return Mean(Clamp(a, -1, 1))
	})
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar should panic")
		}
	}()
	New(2, 2).Backward()
}

func TestNoGradSkipsTape(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	c := MatMul(a, b)
	if c.RequiresGrad() {
		t.Fatal("result of grad-free inputs should not require grad")
	}
	if c.backFn != nil {
		t.Fatal("grad-free op should not retain a backward closure")
	}
}

func TestGradAccumulation(t *testing.T) {
	a := FromSlice(1, 1, []float64{2}).Param()
	l1 := Mean(Mul(a, a)) // d/da = 2a = 4
	l1.Backward()
	l2 := Mean(Scale(a, 3)) // d/da = 3
	l2.Backward()
	if got := a.Grad[0]; math.Abs(got-7) > 1e-12 {
		t.Fatalf("accumulated grad = %v, want 7", got)
	}
	a.ZeroGrad()
	if a.Grad[0] != 0 {
		t.Fatal("ZeroGrad did not clear")
	}
}

// Property: softmax rows are a probability simplex for arbitrary inputs.
func TestSoftmaxSimplexProperty(t *testing.T) {
	f := func(vals [6]float64) bool {
		data := make([]float64, 6)
		for i, v := range vals {
			// bound magnitudes to avoid inf inputs from quick
			data[i] = math.Mod(v, 50)
			if math.IsNaN(data[i]) {
				data[i] = 0
			}
		}
		y := Softmax(FromSlice(2, 3, data))
		for r := 0; r < 2; r++ {
			var sum float64
			for c := 0; c < 3; c++ {
				v := y.At(r, c)
				if v < 0 || v > 1 || math.IsNaN(v) {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: MatMul distributes over addition: (A+B)·C == A·C + B·C.
func TestMatMulDistributiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed+1))
		a := Randn(3, 4, 1, rng)
		b := Randn(3, 4, 1, rng)
		c := Randn(4, 2, 1, rng)
		lhs := MatMul(Add(a, b), c)
		r1 := MatMul(a, c)
		r2 := MatMul(b, c)
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-(r1.Data[i]+r2.Data[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatMulMatchesSerial(t *testing.T) {
	rng := newRNG()
	// Large enough to trigger the parallel path.
	a := Randn(256, 64, 1, rng)
	b := Randn(64, 128, 1, rng)
	c := MatMul(a, b)
	// Serial reference for a few sampled entries.
	for _, rc := range [][2]int{{0, 0}, {17, 33}, {255, 127}, {128, 64}} {
		r, cc := rc[0], rc[1]
		var want float64
		for k := 0; k < 64; k++ {
			want += a.At(r, k) * b.At(k, cc)
		}
		if math.Abs(c.At(r, cc)-want) > 1e-9 {
			t.Fatalf("parallel matmul (%d,%d) = %v, want %v", r, cc, c.At(r, cc), want)
		}
	}
}
