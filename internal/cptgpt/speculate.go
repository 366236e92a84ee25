package cptgpt

import (
	"math"
	"math/rand/v2"
	"sync/atomic"
)

// Speculative decoding: emit several tokens per transformer pass while
// preserving CPT-GPT's output distribution exactly. This file holds the
// acceptance–rejection rules; the loop that applies them is the one slot
// scheduler, sampleSlots (sample.go), run at a draft length above 0.
//
// Plain decoding — draft length 0 — pays one full forward per emitted token.
// At draft length k a cheap draft model (an SMM or n-gram proposer,
// draft.go) guesses a chain of k tokens behind the slot's pending token, the
// pass runs all k+1 rows through the transformer at once
// (BatchDecoder.StepK: the row-packed GEMM body with k+1 rows per slot
// instead of one), and the scheduler then plays the standard speculative
// acceptance–rejection game position by position:
//
//   - a drafted value x, proposed with probability/density q(x), is
//     accepted with probability min(1, p(x)/q(x)) against the verified
//     target distribution p;
//   - on rejection the value is resampled from the residual distribution
//     ∝ max(p − q, 0), and the chain's unverified suffix is discarded
//     (BatchDecoder.TruncateSlot rewinds the KV cache).
//
// Either branch emits a value distributed exactly per p — the classic
// speculative-sampling lemma — so chaining over positions and over the
// three token fields (event, interarrival, stop) reproduces plain
// sampling's per-position conditionals bit-for-bit in distribution. The
// draft model only moves the ACCEPTANCE RATE, never the output law; the
// exactness tests in speculate_test.go pin this with chi-square and KS
// checks against the plain sampler.
//
// Token fields are verified in the same order plain sampling draws them
// (event, interarrival, stop):
//
//   - event: categorical acceptance–rejection with a categorical residual;
//   - interarrival: the target is the clamped Gaussian
//     clamp(N(mean, std), 0, 1) of GenOpts' Design-2 head — a mixed
//     distribution with atoms at 0 and 1 and a density between. The draft
//     proposes from the same family, so the acceptance ratio is the
//     Radon–Nikodym derivative w.r.t. the shared dominating measure
//     (Lebesgue on (0,1) plus the two atoms): atom masses compare with
//     atom masses, interior densities with densities. The residual is
//     sampled by rejection from the target itself.
//   - stop: the draft always proposes "continue" (chains only extend
//     through stop = 0), whose residual is exactly {stop = 1} — so the
//     verification collapses to drawing the stop field directly from the
//     target, and a rejected stop simply ends the stream. Nothing is
//     wasted and no draft statistics are needed.
//
// A chain that survives whole leaves the pass's last heads conditioned on
// exactly the stream so far, so one more token is sampled from them with
// plain sampleStep draws — the same step that is all a pass does at draft
// length 0. Every random draw comes from the stream's own index-seeded RNG in
// a fixed per-stream order, and StepK's per-slot results are independent of
// batch composition, so speculative output is deterministic per seed at every
// Parallelism × BatchSize for a given DraftTokens — though its streams differ
// from plain decoding's (different RNG consumption), which remain
// bit-identical to the serial reference.

// addDecodeStats accumulates src into dst atomically (workers report their
// decoders' lifetime counters into a shared GenOpts.Stats).
func addDecodeStats(dst *DecodeStats, src DecodeStats) {
	if dst == nil {
		return
	}
	atomic.AddInt64(&dst.Steps, src.Steps)
	atomic.AddInt64(&dst.SlotSteps, src.SlotSteps)
	atomic.AddInt64(&dst.DraftProposed, src.DraftProposed)
	atomic.AddInt64(&dst.DraftAccepted, src.DraftAccepted)
}

// softmaxInto fills probs with softmax(logits/temp), max-shifted. The probs
// are the distribution sampleLogitsInto draws from, made explicit for the
// acceptance ratios.
func softmaxInto(probs, logits []float64, temp float64) {
	probs = probs[:len(logits)]
	maxv := math.Inf(-1)
	for _, v := range logits {
		if v/temp > maxv {
			maxv = v / temp
		}
	}
	var sum float64
	for i, v := range logits {
		p := math.Exp(v/temp - maxv)
		probs[i] = p
		sum += p
	}
	inv := 1 / sum
	for i := range probs {
		probs[i] *= inv
	}
}

// drawProbs samples an index from a normalized pmf.
func drawProbs(probs []float64, rng *rand.Rand) int {
	u := rng.Float64()
	for i, p := range probs {
		u -= p
		if u < 0 {
			return i
		}
	}
	return len(probs) - 1
}

// verifyEvent runs one categorical acceptance–rejection round: evD was
// drawn from proposal pmf q; p is the verified target pmf. The returned
// index is distributed exactly per p; accepted reports whether the drafted
// value survived (the emitted token equals the draft, so the chain may
// continue).
func verifyEvent(evD int, q, p []float64, rng *rand.Rand) (ev int, accepted bool) {
	if q[evD] > 0 && rng.Float64()*q[evD] < p[evD] {
		return evD, true
	}
	// Residual ∝ max(p − q, 0).
	var total float64
	for i := range p {
		if d := p[i] - q[i]; d > 0 {
			total += d
		}
	}
	if total <= 0 {
		// p ≤ q everywhere means p == q (both sum to 1): rejection had
		// probability 0; numerically, fall back to a direct target draw.
		return drawProbs(p, rng), false
	}
	u := rng.Float64() * total
	last := evD
	for i := range p {
		if d := p[i] - q[i]; d > 0 {
			last = i
			u -= d
			if u < 0 {
				return i, false
			}
		}
	}
	return last, false
}

const sqrt2Pi = 2.5066282746310005024157652848110452530069867406099

// stdPhi is the standard normal CDF.
func stdPhi(z float64) float64 { return 0.5 * math.Erfc(-z/math.Sqrt2) }

// clampedGaussRN is the Radon–Nikodym derivative of clamp(N(mu, sigma), 0, 1)
// at x, w.r.t. the dominating measure Lebesgue-on-(0,1) + δ₀ + δ₁: the atom
// mass at the clamp points, the Gaussian density between them.
func clampedGaussRN(x, mu, sigma float64) float64 {
	switch {
	case x <= 0:
		return stdPhi((0 - mu) / sigma)
	case x >= 1:
		return 1 - stdPhi((1-mu)/sigma)
	default:
		z := (x - mu) / sigma
		return math.Exp(-0.5*z*z) / (sigma * sqrt2Pi)
	}
}

// verifyIA runs the interarrival acceptance–rejection round. iaD was drawn
// from clamp(N(qMu, qSd), 0, 1); the target is clamp(N(pMu, pSd), 0, 1)
// under the distribution head, or the deterministic clamp(pMu) in the
// Table 8 ablation. The returned value is distributed exactly per the
// target; accepted reports draft survival.
func verifyIA(iaD, qMu, qSd, pMu, pSd float64, distHead bool, rng *rand.Rand) (ia float64, accepted bool) {
	if !distHead {
		// Point-mass target: the draft survives only on exact agreement;
		// the residual of everything else is the point mass itself.
		target := clamp01(pMu)
		return target, iaD == target
	}
	pd := clampedGaussRN(iaD, pMu, pSd)
	qd := clampedGaussRN(iaD, qMu, qSd)
	if qd > 0 && rng.Float64()*qd < pd {
		return iaD, true
	}
	// Residual ∝ p − min(p, q), sampled by rejection from the target: draw
	// y ~ p, keep it with probability 1 − min(1, q(y)/p(y)). Each round
	// succeeds with probability equal to the total rejection mass — the
	// same mass that brought us here — so the expected number of extra
	// target draws per emitted token is ~1 regardless of draft quality.
	for it := 0; it < 10000; it++ {
		y := clamp01(pMu + pSd*rng.NormFloat64())
		py := clampedGaussRN(y, pMu, pSd)
		qy := clampedGaussRN(y, qMu, qSd)
		if rng.Float64()*py >= math.Min(py, qy) {
			return y, false
		}
	}
	// Statistically unreachable (needs ~10⁴ consecutive sub-machine-epsilon
	// residual rounds); keep the last target draw rather than loop forever.
	return clamp01(pMu + pSd*rng.NormFloat64()), false
}

// stopContinueProb is p(stop = 0) under the target's temperature-scaled
// stop head — the acceptance probability of the draft's constant
// "continue" proposal.
func stopContinueProb(logits [2]float64, temp float64) float64 {
	a, b := logits[0]/temp, logits[1]/temp
	m := math.Max(a, b)
	ea, eb := math.Exp(a-m), math.Exp(b-m)
	return ea / (ea + eb)
}
