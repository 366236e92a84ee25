package tensor

import (
	"math"
	"testing"

	"cptgpt/internal/stats"
)

func TestDotF32MatchesFloat64(t *testing.T) {
	rng := stats.NewRand(11)
	for _, n := range []int{0, 1, 3, 4, 7, 8, 33, 129} {
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(DotF32(a, b))
		tol := 1e-4 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("n=%d: DotF32 = %v, float64 reference = %v (tol %v)", n, got, want, tol)
		}
	}
}

func TestDotF32Deterministic(t *testing.T) {
	rng := stats.NewRand(3)
	a := make([]float32, 101)
	b := make([]float32, 101)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	first := DotF32(a, b)
	for i := 0; i < 10; i++ {
		if got := DotF32(a, b); got != first {
			t.Fatalf("DotF32 not deterministic: %v != %v", got, first)
		}
	}
}

func TestAxpyAndF32From(t *testing.T) {
	dst := []float32{1, 2, 3}
	AxpyF32(dst, 2, []float32{10, 20, 30})
	for i, want := range []float32{21, 42, 63} {
		if dst[i] != want {
			t.Fatalf("AxpyF32[%d] = %v, want %v", i, dst[i], want)
		}
	}
	out := make([]float32, 3)
	F32From(out, []float64{0.5, -1, 2.25})
	for i, want := range []float32{0.5, -1, 2.25} {
		if out[i] != want {
			t.Fatalf("F32From[%d] = %v, want %v", i, out[i], want)
		}
	}
}
