package cptgpt

import (
	"math"
	"math/rand/v2"
	"sync/atomic"

	"cptgpt/internal/stats"
	"cptgpt/internal/trace"
	"cptgpt/internal/tracez"
)

// Speculative decoding: emit several tokens per transformer pass while
// preserving CPT-GPT's output distribution exactly.
//
// Plain decoding pays one full forward per emitted token. Speculative
// decoding has a cheap draft model (an SMM or n-gram proposer, draft.go)
// guess a chain of k tokens, runs all k through the transformer in ONE
// prefill-shaped pass (BatchDecoder.StepK: the row-packed GEMM body plain
// Step also runs, with k rows per slot instead of one), and then plays the
// standard speculative acceptance–rejection game position by position:
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
// Scheduling is continuous batching exactly like sampleContinuous: a
// finished stream's slot reseats the next pending stream immediately. Every
// random draw comes from the stream's own index-seeded RNG in a fixed
// per-stream order, and StepK's per-slot results are independent of batch
// composition, so speculative output is deterministic per seed at every
// Parallelism × BatchSize × DraftTokens — though its streams differ from
// the non-speculative paths' (different RNG consumption), which remain
// bit-identical to PR 4.

// draftTokens resolves the per-pass draft chain length.
func (o GenOpts) draftTokens() int {
	if o.DraftTokens > 0 {
		return o.DraftTokens
	}
	return DefaultDraftTokens
}

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

// sampleSpeculative decodes the streams of out (global indices baseIdx+i)
// through dec with speculative continuous batching. Slot protocol: a seated
// stream always carries either a PENDING token (emitted but not yet
// consumed by the transformer — the bootstrap token right after seating, or
// a rejection's replacement) or HELD head outputs (a fully accepted pass's
// final conditional, from which the next token is sampled for free). Each
// round turns held heads into an emission + pending token, drafts a chain
// behind the pending token, verifies the whole chain in one StepK pass, and
// accepts a prefix.
func (m *Model) sampleSpeculative(dec *BatchDecoder, out []trace.Stream, baseIdx int, next *atomic.Int64, opts GenOpts, init *stats.Categorical, draft DraftModel) {
	capacity := dec.Capacity()
	dim := m.Tok.Dim()
	vocab := m.Tok.Vocab()
	v := m.Tok.V()
	total := int64(len(out))
	maxLen := m.Cfg.MaxLen
	temp := opts.Temperature
	k := opts.draftTokens()
	kMax := k + 1

	rngs := make([]*rand.Rand, capacity)
	times := make([]float64, capacity)
	cur := make([]int, capacity)
	committed := make([]DraftState, capacity)
	scratch := make([]DraftState, capacity)
	for i := range committed {
		committed[i] = draft.NewDraftState()
		scratch[i] = draft.NewDraftState()
	}

	toks := make([]float64, capacity*kMax*dim)
	probs := make([]float64, v)
	qProbs := make([]float64, v)

	// Held target heads (per slot; valid when held[slot]).
	held := make([]bool, capacity)
	heldEv := make([]float64, capacity*v)
	heldIA := make([]float64, capacity*2) // IAMean, IALogStd
	heldStop := make([]float64, capacity*2)

	// Pending emitted-but-unconsumed token (valid when !held for an active
	// slot).
	pendEv := make([]int, capacity)
	pendIA := make([]float64, capacity)

	// Draft chain bookkeeping, slot-major kMax rows (row 0 unused — it is
	// the pending token).
	type chainEnt struct {
		ev       int
		ia       float64
		qMu, qSd float64
	}
	chain := make([]chainEnt, capacity*kMax)
	chainQ := make([]float64, capacity*kMax*v)

	claim := func() int {
		if i := next.Add(1) - 1; i < total {
			return int(i)
		}
		return -1
	}

	// seat boots stream li into slot through the shared bootStream helper
	// (one definition of the bootstrap draw order across all schedulers)
	// and reports whether it needs decode passes. The bootstrap token
	// becomes the slot's pending token.
	seat := func(slot, li int) bool {
		dec.ResetSlot(slot)
		rng := stats.NewRand(streamSeed(opts.Seed, baseIdx+li))
		rngs[slot] = rng
		cur[slot] = li
		s := &out[li]
		evIdx, start := bootStream(s, baseIdx+li, opts, init, vocab, rng)
		times[slot] = start
		if len(s.Events) >= maxLen {
			return false
		}
		committed[slot].Reset(evIdx)
		pendEv[slot], pendIA[slot] = evIdx, 0
		held[slot] = false
		return true
	}

	refill := func(slot int) bool {
		for {
			li := claim()
			if li < 0 {
				return false
			}
			if seat(slot, li) {
				return true
			}
		}
	}

	// ensurePending converts held heads into an emission + pending token
	// (the free token of a fully accepted pass). On stream end it reseats
	// the slot; false retires the slot (population exhausted).
	ensurePending := func(slot int) bool {
		if !held[slot] {
			return true
		}
		held[slot] = false
		so := StepOut{
			EventLogits: heldEv[slot*v : (slot+1)*v],
			IAMean:      heldIA[slot*2],
			IALogStd:    heldIA[slot*2+1],
			StopLogits:  [2]float64{heldStop[slot*2], heldStop[slot*2+1]},
		}
		ev, scaled, stopIdx := m.sampleStep(so, temp, rngs[slot], probs)
		s := &out[cur[slot]]
		times[slot] += m.Tok.UnscaleIA(scaled)
		s.Events = append(s.Events, trace.Event{Time: times[slot], Type: vocab[ev]})
		if stopIdx != 1 && len(s.Events) < maxLen {
			committed[slot].Observe(ev, scaled)
			pendEv[slot], pendIA[slot] = ev, scaled
			return true
		}
		return refill(slot)
	}

	active := make([]int, 0, capacity)
	for slot := 0; slot < capacity; slot++ {
		if !refill(slot) {
			break
		}
		active = append(active, slot)
	}

	slotsRun := make([]int, 0, capacity)
	ks := make([]int, 0, capacity)
	keep := make([]int, 0, capacity)
	for len(active) > 0 {
		// Phase 1: resolve held heads, then draft a chain behind every
		// slot's pending token.
		draftSp := tracez.Begin(tracez.StageDecodeDraft, "")
		slotsRun = slotsRun[:0]
		ks = ks[:0]
		for _, slot := range active {
			if !ensurePending(slot) {
				continue
			}
			s := &out[cur[slot]]
			c := k
			if r := maxLen - len(s.Events); c > r {
				c = r
			}
			m.Tok.writeToken(toks[(slot*kMax)*dim:(slot*kMax+1)*dim], pendEv[slot], pendIA[slot], 0)
			scratch[slot].CopyFrom(committed[slot])
			for r := 1; r <= c; r++ {
				scratch[slot].Propose(qProbs)
				evD := drawProbs(qProbs, rngs[slot])
				qMu, qSd := scratch[slot].ProposeIA(evD)
				var iaD float64
				if m.Cfg.DistHead {
					iaD = clamp01(qMu + qSd*rngs[slot].NormFloat64())
				} else {
					iaD = clamp01(qMu)
				}
				ce := &chain[slot*kMax+r]
				ce.ev, ce.ia, ce.qMu, ce.qSd = evD, iaD, qMu, qSd
				copy(chainQ[(slot*kMax+r)*v:(slot*kMax+r+1)*v], qProbs)
				scratch[slot].Observe(evD, iaD)
				m.Tok.writeToken(toks[(slot*kMax+r)*dim:(slot*kMax+r+1)*dim], evD, iaD, 0)
			}
			slotsRun = append(slotsRun, slot)
			ks = append(ks, c+1)
		}
		draftSp.End(int64(len(slotsRun)), "")
		if len(slotsRun) == 0 {
			break
		}

		// Phase 2: one multi-token verify pass for the whole batch
		// (StepK records its own decode.stepk span).
		outs := dec.StepK(slotsRun, ks, kMax, toks)

		// Phase 3: acceptance–rejection over each slot's chain.
		verifySp := tracez.Begin(tracez.StageDecodeVerify, "")
		keep = keep[:0]
		var propTotal, accTotal int64
		for j, slot := range slotsRun {
			c := ks[j] - 1
			s := &out[cur[slot]]
			rng := rngs[slot]
			pos0 := dec.Pos(slot) - (c + 1) // slot position before the pass
			propTotal += int64(c)
			done := false
			i := 1
			for ; i <= c; i++ {
				h := outs[j][i-1] // target conditional for chain position i
				ce := chain[slot*kMax+i]

				softmaxInto(probs, h.EventLogits, temp)
				ev, okEv := verifyEvent(ce.ev, chainQ[(slot*kMax+i)*v:(slot*kMax+i+1)*v], probs, rng)
				pSd := math.Exp(h.IALogStd) // unused when !DistHead
				ia, okIA := verifyIA(ce.ia, ce.qMu, ce.qSd, h.IAMean, pSd, m.Cfg.DistHead, rng)
				stopIdx := 0
				if rng.Float64() >= stopContinueProb(h.StopLogits, temp) {
					stopIdx = 1
				}

				times[slot] += m.Tok.UnscaleIA(ia)
				s.Events = append(s.Events, trace.Event{Time: times[slot], Type: vocab[ev]})
				if okEv && okIA {
					accTotal++
				}
				if stopIdx == 1 || len(s.Events) >= maxLen {
					done = true
					break
				}
				committed[slot].Observe(ev, ia)
				if !(okEv && okIA) {
					// Rejection: the emitted replacement becomes the pending
					// token; drop the chain's unverified suffix.
					pendEv[slot], pendIA[slot] = ev, ia
					dec.TruncateSlot(slot, pos0+i)
					break
				}
			}
			if !done && i > c {
				// Full acceptance: the pass's final heads seed the next
				// round's free token.
				h := outs[j][c]
				copy(heldEv[slot*v:(slot+1)*v], h.EventLogits)
				heldIA[slot*2], heldIA[slot*2+1] = h.IAMean, h.IALogStd
				heldStop[slot*2], heldStop[slot*2+1] = h.StopLogits[0], h.StopLogits[1]
				held[slot] = true
			}
			if done {
				if refill(slot) {
					keep = append(keep, slot)
				}
				continue
			}
			keep = append(keep, slot)
		}
		dec.countDraft(propTotal, accTotal)
		verifySp.End(accTotal, "")
		active, keep = keep, active
	}
}
