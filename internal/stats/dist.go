// Package stats provides the statistical substrate shared by the workload
// generator, the baselines and the fidelity metrics: seedable samplers for
// the heavy-tailed distributions that describe control-plane interarrival
// and sojourn times, the max-y-distance between empirical CDFs (two-sample
// Kolmogorov–Smirnov statistic) used throughout the paper's evaluation,
// histograms, and a small k-means used by the clustered SMM baseline.
package stats

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Sampler draws float64 variates from a distribution.
type Sampler interface {
	// Sample draws one variate using rng.
	Sample(rng *rand.Rand) float64
	// Mean returns the distribution mean (may be +Inf for very heavy tails).
	Mean() float64
}

// Exponential is the exponential distribution with the given rate λ > 0.
type Exponential struct {
	Rate float64
}

// Sample draws an Exp(λ) variate.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / e.Rate
}

// Mean returns 1/λ.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma²)).
type LogNormal struct {
	Mu    float64
	Sigma float64
}

// Sample draws a log-normal variate.
func (l LogNormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(l.Mu + l.Sigma*rng.NormFloat64())
}

// Mean returns exp(Mu + Sigma²/2).
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// Weibull is the Weibull distribution with shape K and scale Lambda.
type Weibull struct {
	K      float64
	Lambda float64
}

// Sample draws a Weibull variate by inverse-transform sampling.
func (w Weibull) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return w.Lambda * math.Pow(-math.Log(u), 1/w.K)
}

// Mean returns λ·Γ(1+1/k).
func (w Weibull) Mean() float64 { return w.Lambda * math.Gamma(1+1/w.K) }

// Pareto is the (type I) Pareto distribution with minimum Xm and shape Alpha.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample draws a Pareto variate by inverse-transform sampling.
func (p Pareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Mean returns α·xm/(α-1) for α > 1 and +Inf otherwise.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// Uniform is the continuous uniform distribution on [Lo, Hi).
type Uniform struct {
	Lo, Hi float64
}

// Sample draws a uniform variate.
func (u Uniform) Sample(rng *rand.Rand) float64 {
	return u.Lo + (u.Hi-u.Lo)*rng.Float64()
}

// Mean returns (Lo+Hi)/2.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

// Mixture is a finite mixture of component samplers with the given weights.
// Weights need not be normalized; they must be non-negative with a positive
// sum.
type Mixture struct {
	Weights    []float64
	Components []Sampler
}

// NewMixture validates and constructs a mixture.
func NewMixture(weights []float64, components []Sampler) (Mixture, error) {
	if len(weights) != len(components) || len(weights) == 0 {
		return Mixture{}, fmt.Errorf("stats: mixture needs equal, non-zero counts of weights and components (got %d, %d)", len(weights), len(components))
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return Mixture{}, fmt.Errorf("stats: negative or NaN mixture weight %v", w)
		}
		sum += w
	}
	if sum <= 0 {
		return Mixture{}, fmt.Errorf("stats: mixture weights sum to %v, want > 0", sum)
	}
	return Mixture{Weights: weights, Components: components}, nil
}

// Sample picks a component by weight and samples it.
func (m Mixture) Sample(rng *rand.Rand) float64 {
	return m.Components[m.pick(rng)].Sample(rng)
}

func (m Mixture) pick(rng *rand.Rand) int {
	var total float64
	for _, w := range m.Weights {
		total += w
	}
	u := rng.Float64() * total
	for i, w := range m.Weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(m.Weights) - 1
}

// Mean returns the weighted mean of the components.
func (m Mixture) Mean() float64 {
	var total, acc float64
	for i, w := range m.Weights {
		total += w
		acc += w * m.Components[i].Mean()
	}
	if total == 0 {
		return 0
	}
	return acc / total
}

// Categorical draws indices 0..len(weights)-1 with probability proportional
// to the weights.
type Categorical struct {
	cum []float64
}

// NewCategorical builds a categorical sampler. Weights must be finite and
// non-negative with a positive, finite sum.
func NewCategorical(weights []float64) (*Categorical, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("stats: categorical needs at least one weight")
	}
	cum := make([]float64, len(weights))
	var total float64
	for i, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("stats: categorical weight %v at %d", w, i)
		}
		total += w
		cum[i] = total
	}
	if !(total > 0) || math.IsInf(total, 1) {
		return nil, fmt.Errorf("stats: categorical weights sum to %v, want a positive finite sum", total)
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[len(cum)-1] = 1 // guard against rounding
	return &Categorical{cum: cum}, nil
}

// Sample draws one index.
func (c *Categorical) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// K returns the number of categories.
func (c *Categorical) K() int { return len(c.cum) }

// NewRand returns a deterministic *rand.Rand seeded from two words, the
// project-wide convention for reproducible experiments.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^pcgSeedMask))
}

// Reseed puts p in the state NewRand(seed)'s generator starts from, so a
// loop that seeds one RNG per item can reuse one generator instead of
// allocating one per item.
func Reseed(p *rand.PCG, seed uint64) { p.Seed(seed, seed^pcgSeedMask) }

// pcgSeedMask derives a PCG's second seed word from its first.
const pcgSeedMask = 0x9e3779b97f4a7c15
