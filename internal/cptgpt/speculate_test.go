package cptgpt

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/stats"
	"cptgpt/internal/trace"
)

// specTestModel builds a tiny model plus its training data.
func specTestModel(t *testing.T) (*Model, *trace.Dataset) {
	t.Helper()
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// TestSpeculativeGenerateDeterministic pins the speculative determinism
// contract: for a fixed (Seed, Precision, DraftTokens) the output is
// bit-identical across repeated runs, every Parallelism × BatchSize, and
// chunked GenerateRange emission.
func TestSpeculativeGenerateDeterministic(t *testing.T) {
	m, _ := specTestModel(t)
	for _, prec := range []Precision{F64, F32} {
		base := GenOpts{NumStreams: 23, Device: events.Phone, Seed: 99, StartWindow: 30,
			Precision: prec, Speculative: true}
		want, err := m.Generate(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct{ par, batch int }{
			{1, 1}, {1, 23}, {8, 4}, {3, 7},
		} {
			opts := base
			opts.Parallelism = c.par
			opts.BatchSize = c.batch
			got, err := m.Generate(opts)
			if err != nil {
				t.Fatal(err)
			}
			sameStreams(t, fmt.Sprintf("spec %s parallelism=%d batch=%d", prec, c.par, c.batch), want.Streams, got.Streams)
		}
		// Chunked emission reproduces the full population.
		var chunked []trace.Stream
		for lo := 0; lo < base.NumStreams; lo += 7 {
			hi := min(lo+7, base.NumStreams)
			part, err := m.GenerateRange(lo, hi, base)
			if err != nil {
				t.Fatal(err)
			}
			chunked = append(chunked, part...)
		}
		sameStreams(t, fmt.Sprintf("spec %s chunked range", prec), want.Streams, chunked)
	}
}

// specMarginals collects the workload marginals the fidelity gates compare.
func specMarginals(ds *trace.Dataset) (types map[events.Type]float64, ias, lens []float64) {
	types = make(map[events.Type]float64)
	var total float64
	for i := range ds.Streams {
		s := &ds.Streams[i]
		lens = append(lens, float64(len(s.Events)))
		for _, e := range s.Events {
			types[e.Type]++
			total++
		}
		ia := s.Interarrivals()
		ias = append(ias, ia[min(len(ia), 1):]...)
	}
	for k := range types {
		types[k] /= total
	}
	return types, ias, lens
}

// TestSpeculativeFidelityMarginals is the distribution-level gate on the
// speculative path (the speculative extension of TestF32FidelityMarginals):
// over a population, speculative output's event-type marginal must stay
// within a small total-variation distance of plain decoding's, and the
// interarrival and stream-length marginals within a small KS distance —
// in both precisions, with both the self-draft and an adversarially bad
// draft (acceptance must never leak into the law, only the speed).
func TestSpeculativeFidelityMarginals(t *testing.T) {
	// Unlike the F32-vs-F64 gate (whose populations are near-identical
	// stream-by-stream, so sampling noise cancels), speculative and plain
	// populations are INDEPENDENT draws from the same law — different RNG
	// consumption resteers every stream. The bounds below sit ~3× above
	// the two-independent-samples noise floor at these sizes (TV ≈ 0.009
	// over ~20k events; two-sample KS 99.9% critical ≈ 0.024 at n ≈ 10k
	// interarrivals and ≈ 0.062 at n = 2000 stream lengths), so they
	// still catch any real distribution shift, which would not shrink
	// with n.
	const streams = 2000
	m, _ := specTestModel(t)
	for _, prec := range []Precision{F64, F32} {
		opts := GenOpts{NumStreams: streams, Device: events.Phone, Seed: 17, Precision: prec}
		plain, err := m.Generate(opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, draft := range map[string]draftModel{
			"self-draft": nil,
			"bad-draft":  badDraft{},
		} {
			opts := opts
			opts.Speculative = true
			opts.draft = draft
			spec, err := m.Generate(opts)
			if err != nil {
				t.Fatal(err)
			}
			tPlain, iaPlain, lenPlain := specMarginals(plain)
			tSpec, iaSpec, lenSpec := specMarginals(spec)
			var tv float64
			for _, typ := range m.Tok.Vocab() {
				tv += math.Abs(tPlain[typ] - tSpec[typ])
			}
			tv /= 2
			if tv > 0.02 {
				t.Fatalf("%s/%s: event-type marginal TV distance %v > 0.02", prec, name, tv)
			}
			if ks := stats.MaxYDistance(iaPlain, iaSpec); ks > 0.035 {
				t.Fatalf("%s/%s: interarrival KS distance %v > 0.035", prec, name, ks)
			}
			if ks := stats.MaxYDistance(lenPlain, lenSpec); ks > 0.07 {
				t.Fatalf("%s/%s: stream-length KS distance %v > 0.07", prec, name, ks)
			}
		}
	}
}

// badDraft is an adversarially mis-calibrated draft: a spiked event
// proposal and a narrow off-center interarrival proposal. Acceptance should
// crater; the output law must not move.
type badDraft struct{}

func (badDraft) NewDraftState() draftState { return &badDraftState{} }

type badDraftState struct{}

func (*badDraftState) Reset(int)            {}
func (*badDraftState) Observe(int, float64) {}
func (*badDraftState) CopyFrom(draftState)  {}
func (*badDraftState) Propose(evProbs []float64) {
	for i := range evProbs {
		evProbs[i] = 0.01 / float64(len(evProbs)-1)
	}
	evProbs[0] = 0.99
}
func (*badDraftState) ProposeIA(int) (float64, float64) { return 0.9, 0.06 }

// TestSpeculativeExactnessChiSquare is the per-position conditional
// exactness test: on a tiny model's REAL head outputs, the acceptance–
// rejection sampler's emitted values must match plain sampling's
// conditional distribution — chi-square over ≥10k samples for the event
// field (against exact softmax probabilities), a two-sample KS bound for
// the clamped-Gaussian interarrival field, and an exact frequency check for
// the stop field.
func TestSpeculativeExactnessChiSquare(t *testing.T) {
	m, d := specTestModel(t)
	// Real target conditionals: run a short prefix through the decoder.
	dec := m.NewBatchDecoder(1, F64)
	tok := make([]float64, m.Tok.Dim())
	m.Tok.writeToken(tok, 1, 0.3, 0)
	var h StepOut
	for step := 0; step < 3; step++ {
		h = dec.Step([]int{0}, tok)[0]
		m.Tok.writeToken(tok, (step+1)%m.Tok.V(), 0.2, 0)
	}
	// Real draft proposal: the n-gram fitted on the training data.
	draft := newNGramDraft(d, m.Tok)
	ds := draft.NewDraftState()
	ds.Reset(1)
	qProbs := make([]float64, m.Tok.V())
	ds.Propose(qProbs)
	qMu, qSd := ds.ProposeIA(1)

	const trials = 20000
	rng := stats.NewRand(4242)
	p := make([]float64, m.Tok.V())
	softmaxInto(p, h.EventLogits, 1)

	// Event field: chi-square against the exact conditional pmf.
	obs := make([]float64, m.Tok.V())
	for i := 0; i < trials; i++ {
		evD := drawProbs(qProbs, rng)
		ev, _ := verifyEvent(evD, qProbs, p, rng)
		obs[ev]++
	}
	var chi2 float64
	df := 0
	for i := range p {
		e := p[i] * trials
		if e < 1e-9 {
			if obs[i] > 0 {
				t.Fatalf("event %d emitted %v times with target probability %v", i, obs[i], p[i])
			}
			continue
		}
		chi2 += (obs[i] - e) * (obs[i] - e) / e
		df++
	}
	// 99.9th percentile of chi-square at df ≤ 8 is < 26.1; the test is
	// deterministic (fixed seed), so a pass is stable.
	if chi2 > 26.1 {
		t.Fatalf("event field chi-square %.2f over %d trials (df %d): speculative sampler is not distribution-exact (p=%v obs=%v)",
			chi2, trials, df-1, p, obs)
	}

	// Interarrival field: two-sample KS between verified emissions and
	// direct target draws.
	pMu, pSd := h.IAMean, math.Exp(h.IALogStd)
	specIA := make([]float64, trials)
	directIA := make([]float64, trials)
	rngA, rngB := stats.NewRand(7), stats.NewRand(8)
	for i := 0; i < trials; i++ {
		iaD := clamp01(qMu + qSd*rngA.NormFloat64())
		specIA[i], _ = verifyIA(iaD, qMu, qSd, pMu, pSd, true, rngA)
		directIA[i] = clamp01(pMu + pSd*rngB.NormFloat64())
	}
	// Two-sample KS 99.9% critical value: 1.95·sqrt(2/n) ≈ 0.0195.
	if ks := stats.MaxYDistance(specIA, directIA); ks > 0.0195 {
		t.Fatalf("interarrival field KS %.4f over %d samples: residual sampling is biased", ks, trials)
	}

	// Stop field: the constant-continue proposal collapses to an exact
	// Bernoulli(p0) draw; check the frequency within 4 sigma.
	p0 := stopContinueProb(h.StopLogits, 1)
	var stops float64
	rngC := stats.NewRand(9)
	for i := 0; i < trials; i++ {
		if rngC.Float64() >= p0 {
			stops++
		}
	}
	want := (1 - p0) * trials
	sigma := math.Sqrt(trials * p0 * (1 - p0))
	if math.Abs(stops-want) > 4*sigma {
		t.Fatalf("stop field: %v stops, want %v ± %v", stops, want, 4*sigma)
	}
}

// TestVerifyEventResidual checks the categorical residual machinery on
// hand-built distributions, including zero-support proposals (q(x) = 0 on
// events the target likes must still emit them via the residual).
func TestVerifyEventResidual(t *testing.T) {
	p := []float64{0.5, 0.3, 0.2}
	q := []float64{1, 0, 0} // proposal never offers events 1 and 2
	rng := stats.NewRand(3)
	const trials = 30000
	obs := make([]float64, 3)
	for i := 0; i < trials; i++ {
		ev, _ := verifyEvent(0, q, p, rng)
		obs[ev]++
	}
	for i := range p {
		got := obs[i] / trials
		if math.Abs(got-p[i]) > 0.01 {
			t.Fatalf("event %d frequency %v, want %v", i, got, p[i])
		}
	}
}

// TestSpeculativeStatsCounters checks the Stats plumbing: a speculative run
// reports proposed/accepted counters with accepted ≤ proposed, and a good
// draft accepts a healthy share.
func TestSpeculativeStatsCounters(t *testing.T) {
	m, _ := specTestModel(t)
	var st DecodeStats
	if _, err := m.Generate(GenOpts{NumStreams: 60, Device: events.Phone, Seed: 3,
		Speculative: true, Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.Steps == 0 || st.SlotSteps == 0 {
		t.Fatalf("no scheduling counters: %+v", st)
	}
	if st.DraftProposed == 0 {
		t.Fatalf("no draft proposals recorded: %+v", st)
	}
	if st.DraftAccepted < 0 || st.DraftAccepted > st.DraftProposed {
		t.Fatalf("accepted outside [0, proposed]: %+v", st)
	}
	rate := float64(st.DraftAccepted) / float64(st.DraftProposed)
	if rate < 0.05 {
		t.Fatalf("self-draft acceptance rate %.3f implausibly low: %+v", rate, st)
	}
	t.Logf("speculative stats: %+v (acceptance %.1f%%)", st, 100*rate)

	// Non-speculative runs must keep the draft counters at zero.
	var plain DecodeStats
	if _, err := m.Generate(GenOpts{NumStreams: 20, Device: events.Phone, Seed: 3, Stats: &plain}); err != nil {
		t.Fatal(err)
	}
	if plain.DraftProposed != 0 || plain.DraftAccepted != 0 {
		t.Fatalf("plain decode recorded draft counters: %+v", plain)
	}
}

// TestNegativeDraftTokensRejected: a negative speculation depth is an error
// from both entry points, not a silent fall back to DefaultDraftTokens.
func TestNegativeDraftTokensRejected(t *testing.T) {
	m, _ := specTestModel(t)
	for _, spec := range []bool{true, false} {
		opts := GenOpts{NumStreams: 4, Device: events.Phone, Seed: 3, Speculative: spec, DraftTokens: -1}
		if _, err := m.Generate(opts); err == nil || !strings.Contains(err.Error(), "DraftTokens") {
			t.Fatalf("Generate(Speculative: %v, DraftTokens: -1) err = %v, want a DraftTokens error", spec, err)
		}
		if _, err := m.GenerateRange(0, 4, opts); err == nil || !strings.Contains(err.Error(), "DraftTokens") {
			t.Fatalf("GenerateRange(Speculative: %v, DraftTokens: -1) err = %v, want a DraftTokens error", spec, err)
		}
	}
}

// TestSpeculativeNoDistHead covers the Table 8 ablation: with a
// deterministic interarrival head, chains cannot usefully extend (the
// point-mass target rejects almost every proposal) but output must stay
// correct and deterministic.
func TestSpeculativeNoDistHead(t *testing.T) {
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	cfg := smallConfig()
	cfg.DistHead = false
	m, err := NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	opts := GenOpts{NumStreams: 40, Device: events.Tablet, Seed: 5, Speculative: true}
	a, err := m.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	sameStreams(t, "no-dist-head speculative", a.Streams, b.Streams)
	for i := range a.Streams {
		if n := len(a.Streams[i].Events); n < 1 || n > cfg.MaxLen {
			t.Fatalf("stream %d has %d events", i, n)
		}
	}
}

// TestNGramDraftProposals sanity-checks the n-gram draft: proposals are
// normalized with full support (smoothing) and a positive IA spread.
func TestNGramDraftProposals(t *testing.T) {
	m, d := specTestModel(t)
	g := newNGramDraft(d, m.Tok)
	st := g.NewDraftState()
	probs := make([]float64, m.Tok.V())
	st.Reset(0)
	for step := 0; step < 5; step++ {
		st.Propose(probs)
		var sum float64
		for _, p := range probs {
			if p <= 0 {
				t.Fatalf("step %d: zero-probability proposal %v (smoothing broken)", step, probs)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("step %d: proposal sums to %v", step, sum)
		}
		for ev := 0; ev < m.Tok.V(); ev++ {
			mu, sd := st.ProposeIA(ev)
			if sd < draftSigmaFloor || mu < -3 || mu > 4 || math.IsNaN(mu) {
				t.Fatalf("step %d event %d: bad IA proposal (%v, %v)", step, ev, mu, sd)
			}
		}
		st.Observe(step%m.Tok.V(), 0.4)
	}
	// Fork/CopyFrom round trip.
	other := g.NewDraftState()
	other.CopyFrom(st)
	a := make([]float64, m.Tok.V())
	b := make([]float64, m.Tok.V())
	st.Propose(a)
	other.Propose(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("CopyFrom did not reproduce proposal state")
		}
	}
}

// TestSelfDraftCached pins the self-draft lifecycle: cached per model,
// dropped by InvalidateInfer.
func TestSelfDraftCached(t *testing.T) {
	m, _ := specTestModel(t)
	a := m.SelfDraft()
	if m.SelfDraft() != a {
		t.Fatal("SelfDraft must cache")
	}
	m.InvalidateInfer()
	if m.SelfDraft() == a {
		t.Fatal("InvalidateInfer must drop the cached draft")
	}
}
