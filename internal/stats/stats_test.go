package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistributionMeans(t *testing.T) {
	rng := NewRand(1)
	const n = 200000
	for _, tc := range []struct {
		name string
		s    Sampler
		tol  float64
	}{
		{"exp", Exponential{Rate: 2}, 0.02},
		{"lognormal", LogNormal{Mu: 0, Sigma: 0.5}, 0.02},
		{"weibull", Weibull{K: 1.5, Lambda: 2}, 0.03},
		{"pareto", Pareto{Xm: 1, Alpha: 3}, 0.05},
		{"uniform", Uniform{Lo: 2, Hi: 10}, 0.05},
	} {
		var sum float64
		for i := 0; i < n; i++ {
			sum += tc.s.Sample(rng)
		}
		got := sum / n
		want := tc.s.Mean()
		if math.Abs(got-want)/want > tc.tol {
			t.Errorf("%s: empirical mean %.4f vs analytic %.4f", tc.name, got, want)
		}
	}
}

func TestParetoInfiniteMean(t *testing.T) {
	if !math.IsInf(Pareto{Xm: 1, Alpha: 0.9}.Mean(), 1) {
		t.Fatal("Pareto with alpha<=1 must have infinite mean")
	}
}

func TestMixtureValidation(t *testing.T) {
	if _, err := NewMixture(nil, nil); err == nil {
		t.Fatal("empty mixture must error")
	}
	if _, err := NewMixture([]float64{1}, []Sampler{Exponential{1}, Exponential{2}}); err == nil {
		t.Fatal("mismatched lengths must error")
	}
	if _, err := NewMixture([]float64{-1, 2}, []Sampler{Exponential{1}, Exponential{2}}); err == nil {
		t.Fatal("negative weight must error")
	}
	m, err := NewMixture([]float64{1, 3}, []Sampler{Uniform{0, 1}, Uniform{10, 11}})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.25*0.5 + 0.75*10.5
	if math.Abs(m.Mean()-want) > 1e-9 {
		t.Fatalf("mixture mean %v, want %v", m.Mean(), want)
	}
}

func TestCategoricalFrequencies(t *testing.T) {
	c, err := NewCategorical([]float64{1, 2, 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(3)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(rng)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d frequency %.3f, want %.3f", i, got, want)
		}
	}
}

func TestCategoricalValidation(t *testing.T) {
	if _, err := NewCategorical(nil); err == nil {
		t.Fatal("empty weights must error")
	}
	if _, err := NewCategorical([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights must error")
	}
	if _, err := NewCategorical([]float64{1, -1}); err == nil {
		t.Fatal("negative weight must error")
	}
	for _, w := range [][]float64{{1, math.NaN()}, {1, math.Inf(1)}, {math.MaxFloat64, math.MaxFloat64}} {
		if _, err := NewCategorical(w); err == nil {
			t.Fatalf("weights %v must error", w)
		}
	}
}

func TestMaxYDistanceIdentical(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3}
	if d := MaxYDistance(xs, xs); d != 0 {
		t.Fatalf("identical samples: distance %v, want 0", d)
	}
}

func TestMaxYDistanceDisjoint(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	if d := MaxYDistance(a, b); math.Abs(d-1) > 1e-12 {
		t.Fatalf("disjoint samples: distance %v, want 1", d)
	}
}

func TestMaxYDistanceEmptyPenalized(t *testing.T) {
	if d := MaxYDistance(nil, []float64{1}); d != 1 {
		t.Fatalf("empty sample must score 1, got %v", d)
	}
}

func TestMaxYDistanceKnownValue(t *testing.T) {
	// a = {1,2,3,4}, b = {3,4,5,6}: at x=2 F_a=0.5, F_b=0 → D = 0.5.
	a := []float64{1, 2, 3, 4}
	b := []float64{3, 4, 5, 6}
	if d := MaxYDistance(a, b); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("distance %v, want 0.5", d)
	}
}

// Property: the KS statistic is symmetric and within [0, 1].
func TestMaxYDistanceProperties(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		d1 := MaxYDistance(a, b)
		d2 := MaxYDistance(b, a)
		return d1 >= 0 && d1 <= 1 && math.Abs(d1-d2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmpiricalSampler(t *testing.T) {
	src := []float64{1, 2, 3, 4, 5}
	es := NewEmpiricalSampler(src)
	rng := NewRand(4)
	var got []float64
	for i := 0; i < 10000; i++ {
		v := es.Sample(rng)
		if v < 1 || v > 5 {
			t.Fatalf("sample %v outside source range", v)
		}
		got = append(got, v)
	}
	sort.Float64s(got)
	med := got[len(got)/2]
	if math.Abs(med-3) > 0.15 {
		t.Fatalf("median %v, want ≈3", med)
	}
	if NewEmpiricalSampler(nil).Sample(rng) != 0 {
		t.Fatal("empty sampler must return 0")
	}
	if NewEmpiricalSampler([]float64{7}).Sample(rng) != 7 {
		t.Fatal("singleton sampler must return its value")
	}
}

func TestMeanStdDev(t *testing.T) {
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("degenerate cases")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 1e-12 {
		t.Fatalf("stddev %v", s)
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := NewRand(5)
	var points [][]float64
	for i := 0; i < 50; i++ {
		points = append(points, []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1})
	}
	for i := 0; i < 50; i++ {
		points = append(points, []float64{10 + rng.NormFloat64()*0.1, 10 + rng.NormFloat64()*0.1})
	}
	res := KMeans(points, 2, 50, rng)
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids %d", len(res.Centroids))
	}
	// All points in each half share an assignment.
	for i := 1; i < 50; i++ {
		if res.Assignment[i] != res.Assignment[0] {
			t.Fatal("first cluster split")
		}
	}
	for i := 51; i < 100; i++ {
		if res.Assignment[i] != res.Assignment[50] {
			t.Fatal("second cluster split")
		}
	}
	if res.Assignment[0] == res.Assignment[50] {
		t.Fatal("clusters merged")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := NewRand(6)
	if res := KMeans(nil, 3, 10, rng); res.Assignment != nil {
		t.Fatal("empty input")
	}
	pts := [][]float64{{1, 2}, {3, 4}}
	res := KMeans(pts, 10, 10, rng) // k > n clamps
	if len(res.Centroids) != 2 {
		t.Fatalf("k should clamp to n, got %d", len(res.Centroids))
	}
	res = KMeans(pts, 0, 10, rng) // k < 1 clamps
	if len(res.Centroids) != 1 {
		t.Fatalf("k should clamp to 1, got %d", len(res.Centroids))
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same sequence")
		}
	}
}

// A reseeded generator draws exactly what a fresh NewRand does.
func TestReseedMatchesNewRand(t *testing.T) {
	var pcg rand.PCG
	rng := rand.New(&pcg)
	for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15, 1<<64 - 1} {
		Reseed(&pcg, seed)
		fresh := NewRand(seed)
		for i := 0; i < 8; i++ {
			if a, b := rng.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed %#x draw %d: reseeded %#x, NewRand %#x", seed, i, a, b)
			}
		}
	}
}
