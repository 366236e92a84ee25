package stats

import (
	"math"
	"sort"
)

// MaxYDistance computes the maximum vertical distance between the ECDFs of
// two samples — the two-sample Kolmogorov–Smirnov statistic — which the
// paper reports (as a percentage) for every distribution-fidelity metric.
// It returns a value in [0, 1]; if either sample is empty it returns 1
// (maximal discrepancy), so a generator that produces no samples for a
// metric is penalized rather than silently scored perfect.
func MaxYDistance(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	as := make([]float64, len(a))
	bs := make([]float64, len(b))
	copy(as, a)
	copy(bs, b)
	sort.Float64s(as)
	sort.Float64s(bs)

	var (
		i, j int
		d    float64
	)
	na, nb := float64(len(as)), float64(len(bs))
	for i < len(as) && j < len(bs) {
		x := math.Min(as[i], bs[j])
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		if diff := math.Abs(float64(i)/na - float64(j)/nb); diff > d {
			d = diff
		}
	}
	return d
}

// Histogram buckets a sample into equal-width bins over [lo, hi]. Samples
// outside the range are clamped into the first or last bin. It returns the
// bin counts and the bin edges (len(edges) == bins+1).
func Histogram(xs []float64, lo, hi float64, bins int) (counts []int, edges []float64) {
	if bins <= 0 {
		bins = 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	counts = make([]int, bins)
	edges = make([]float64, bins+1)
	w := (hi - lo) / float64(bins)
	for i := range edges {
		edges[i] = lo + w*float64(i)
	}
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	return counts, edges
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs, or 0 when there
// are fewer than two samples.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// EmpiricalSampler resamples from an observed sample with linear
// interpolation between adjacent order statistics. This is the "one CDF
// model per transition" device the SMM baseline uses for sojourn times,
// which the SMM authors adopted after finding parametric families
// (Poisson/Pareto/Weibull) inadequate for control-plane traffic.
type EmpiricalSampler struct {
	sorted []float64
}

// NewEmpiricalSampler builds a sampler from xs; it copies and sorts the
// input. An empty sample yields a sampler that always returns 0.
func NewEmpiricalSampler(xs []float64) *EmpiricalSampler {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &EmpiricalSampler{sorted: s}
}

// Sample draws by inverse-transform over the interpolated empirical CDF.
func (e *EmpiricalSampler) Sample(rng interface{ Float64() float64 }) float64 {
	n := len(e.sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return e.sorted[0]
	}
	u := rng.Float64() * float64(n-1)
	i := int(u)
	if i >= n-1 {
		i = n - 2
	}
	frac := u - float64(i)
	return e.sorted[i] + frac*(e.sorted[i+1]-e.sorted[i])
}

// N returns the underlying sample size.
func (e *EmpiricalSampler) N() int { return len(e.sorted) }
