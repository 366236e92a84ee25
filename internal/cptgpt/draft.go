package cptgpt

import (
	"fmt"
	"math"
	"sync"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// The draft proposer for speculative decoding. A draft is a cheap stand-in
// for the transformer that guesses the next few tokens of a stream; the
// verify pass (BatchDecoder.StepK) then runs all guesses through the real
// model in one prefill-shaped pass and the acceptance–rejection sampler in
// speculate.go keeps a prefix. The draft influences only HOW OFTEN guesses
// are accepted — never the output distribution, which the sampler preserves
// exactly — so a draft needs no correctness properties beyond well-formed
// proposals: event probabilities that sum to 1 and a positive interarrival
// proposal spread. Decoding always drafts from the model's own n-gram
// (Model.SelfDraft).

// DefaultDraftTokens is the draft chain length (tokens proposed per verify
// pass) when GenOpts.DraftTokens is unset.
const DefaultDraftTokens = 4

// draftSigmaFloor keeps interarrival proposal spreads away from zero: a
// near-point proposal would almost always reject against the model's
// Gaussian, costing throughput (never correctness).
const draftSigmaFloor = 0.05

// draftUniformMix is the probability mass drafts blend toward the uniform
// event distribution. It bounds the worst-case acceptance loss when the
// draft's conditional is overconfident or has support gaps — q(x) = 0 on an
// event the model likes means every such proposal rejects.
const draftUniformMix = 0.1

// draftModel proposes speculative draft chains. *NGramDraft is the one
// implementation decoding uses; the interface is a test seam (GenOpts.draft)
// for drafts tests substitute. Implementations must be safe for concurrent
// use: every decode worker holds its own draftStates but shares the model.
type draftModel interface {
	// NewDraftState returns fresh per-stream proposal state. States are
	// slot-local and reused across the streams a slot decodes (Reset per
	// stream).
	NewDraftState() draftState
}

// draftState is one stream's draft-side decoding state. The speculative
// sampler drives it in lockstep with the emitted token sequence: Reset at
// the bootstrap event, Observe for every emitted token, and Propose for
// each drafted position (the sampler itself draws the proposal from the
// returned distributions, so states never need randomness).
type draftState interface {
	// Reset reinitializes the state for a new stream whose bootstrap event
	// is eventIdx (a tokenizer vocabulary index).
	Reset(eventIdx int)
	// Observe advances the state past an emitted token: event index and
	// scaled interarrival (the tokenizer's [0, 1] space).
	Observe(eventIdx int, scaledIA float64)
	// Propose fills evProbs (length V, summing to 1) with the proposal
	// distribution over the next event type.
	Propose(evProbs []float64)
	// ProposeIA returns the mean and standard deviation of the Gaussian
	// (clamped to [0, 1] like the model's own head) proposing the next
	// scaled interarrival, conditioned on the event the sampler just drew
	// from Propose's distribution. Std must be positive.
	ProposeIA(eventIdx int) (iaMean, iaStd float64)
	// CopyFrom makes this state a copy of src (same concrete type): the
	// sampler forks a scratch state down the draft chain each round and
	// re-syncs it from the committed state afterwards.
	CopyFrom(src draftState)
}

// NGramDraft is the speculative draft proposer: a smoothed bigram over event
// types plus per-transition clamped-Gaussian summaries of the scaled
// interarrival, fitted on a population the model itself generated
// (Model.SelfDraft). It knows nothing about 3GPP semantics — which is
// exactly the paper's no-domain-knowledge stance — yet tracks the model
// closely enough for useful acceptance rates, because it is fitted on the
// model's own output.
//
// The interarrival proposal is fitted atom-first: the model's own IA law
// is clamp(N(mean, std), 0, 1), whose clamp atoms at 0 and 1 often carry
// most of the mass, so the fit chooses (mu, sigma) to reproduce the
// OBSERVED atom frequencies exactly (two quantile equations) and lets the
// interior follow — which is what maximizes the acceptance overlap
// ∫min(p, q) against a target of the same family.
type NGramDraft struct {
	v     int
	probs []float64 // V×V row-major: probs[prev*v+next]
	init  []float64 // event proposal used with no predecessor
	iaMu  []float64 // V×V per-(prev, next) clamped-Gaussian mean
	iaSd  []float64 // V×V per-(prev, next) std (floored)
}

// iaAcc accumulates clamped-sample statistics for one fit unit.
type iaAcc struct {
	n, n0, n1, sum, sum2 float64
}

func (a *iaAcc) add(x float64) {
	a.n++
	switch {
	case x <= 0:
		a.n0++
	case x >= 1:
		a.n1++
	}
	a.sum += x
	a.sum2 += x * x
}

func (a *iaAcc) merge(b iaAcc) {
	a.n += b.n
	a.n0 += b.n0
	a.n1 += b.n1
	a.sum += b.sum
	a.sum2 += b.sum2
}

// newNGramDraft fits the bigram draft from a dataset tokenized by tok.
// Streams with events outside the vocabulary are skipped, not an error; an
// empty or fully skipped dataset yields uniform proposals.
func newNGramDraft(d *trace.Dataset, tok Tokenizer) *NGramDraft {
	v := tok.V()
	g := &NGramDraft{
		v:     v,
		probs: make([]float64, v*v),
		init:  make([]float64, v),
		iaMu:  make([]float64, v*v),
		iaSd:  make([]float64, v*v),
	}
	counts := make([]float64, v*v)
	initCounts := make([]float64, v)
	pair := make([]iaAcc, v*v)
	for i := range d.Streams {
		s := &d.Streams[i]
		ia := s.Interarrivals()
		prev := -1
		for j := range s.Events {
			idx := events.VocabIndex(tok.Gen, s.Events[j].Type)
			if idx < 0 {
				prev = -1
				continue
			}
			if prev >= 0 {
				counts[prev*v+idx]++
				pair[prev*v+idx].add(tok.ScaleIA(ia[j]))
			} else {
				initCounts[idx]++
			}
			prev = idx
		}
	}
	var initTotal float64
	for _, c := range initCounts {
		initTotal += c
	}
	for next := 0; next < v; next++ {
		base := 1 / float64(v)
		if initTotal > 0 {
			base = initCounts[next] / initTotal
		}
		g.init[next] = (1-draftUniformMix)*base + draftUniformMix/float64(v)
	}
	var global iaAcc
	for i := range pair {
		global.merge(pair[i])
	}
	// minPairObs is the sample count below which a transition's IA fit
	// falls back to its predecessor's pooled statistics (then global).
	const minPairObs = 8
	for prev := 0; prev < v; prev++ {
		var total float64
		var pooled iaAcc
		for next := 0; next < v; next++ {
			total += counts[prev*v+next]
			pooled.merge(pair[prev*v+next])
		}
		for next := 0; next < v; next++ {
			base := 1 / float64(v)
			if total > 0 {
				base = counts[prev*v+next] / total
			}
			g.probs[prev*v+next] = (1-draftUniformMix)*base + draftUniformMix/float64(v)
			acc := pair[prev*v+next]
			if acc.n < minPairObs {
				acc = pooled
			}
			if acc.n < 1 {
				acc = global
			}
			g.iaMu[prev*v+next], g.iaSd[prev*v+next] = fitClampedGauss(acc)
		}
	}
	return g
}

// fitClampedGauss chooses (mu, sigma) for a clamp(N(mu, sigma), 0, 1)
// proposal from clamped observations. When both clamp atoms were observed,
// the two atom-frequency equations pin (mu, sigma) exactly; with one atom,
// sigma comes from the sample moments and mu matches the atom; with none,
// plain moment matching. Sigma is floored (a near-point proposal rejects
// almost surely against any Gaussian target).
func fitClampedGauss(a iaAcc) (mu, sd float64) {
	if a.n <= 0 {
		return 0.5, 0.5
	}
	f0, f1 := a.n0/a.n, a.n1/a.n
	mean := a.sum / a.n
	va := a.sum2/a.n - mean*mean
	sdM := math.Sqrt(math.Max(va, 0))
	switch {
	case f0 >= 1: // every observation clamped at 0
		return -0.2, 0.1
	case f1 >= 1:
		return 1.2, 0.1
	case f0 > 0 && f1 > 0:
		z0, z1 := invPhi(f0), invPhi(1-f1)
		if z1-z0 > 1e-3 {
			sd = math.Max(1/(z1-z0), draftSigmaFloor)
			return clampDraftMu(-z0 * sd), sd
		}
	case f0 > 0:
		sd = math.Max(sdM, draftSigmaFloor)
		return clampDraftMu(-invPhi(f0) * sd), sd
	case f1 > 0:
		sd = math.Max(sdM, draftSigmaFloor)
		return clampDraftMu(1 - invPhi(1-f1)*sd), sd
	}
	return clampDraftMu(mean), math.Max(sdM, draftSigmaFloor)
}

// clampDraftMu keeps fitted proposal means in a sane band (means outside
// [0, 1] are legitimate — that is how heavy clamp atoms arise — but runaway
// quantile solutions are not).
func clampDraftMu(mu float64) float64 {
	return math.Min(math.Max(mu, -3), 4)
}

// invPhi is the standard normal quantile via bisection on stdPhi —
// fit-time only, so 80 iterations of exactness beat a rational
// approximation's review burden.
func invPhi(p float64) float64 {
	lo, hi := -8.0, 8.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if stdPhi(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// NewDraftState returns a fresh bigram state.
func (g *NGramDraft) NewDraftState() draftState { return &ngramState{g: g, prev: -1} }

// ngramState tracks only the last emitted event.
type ngramState struct {
	g    *NGramDraft
	prev int
}

func (s *ngramState) Reset(eventIdx int)              { s.prev = eventIdx }
func (s *ngramState) Observe(eventIdx int, _ float64) { s.prev = eventIdx }

func (s *ngramState) Propose(evProbs []float64) {
	g := s.g
	if s.prev < 0 || s.prev >= g.v {
		copy(evProbs[:g.v], g.init)
		return
	}
	copy(evProbs[:g.v], g.probs[s.prev*g.v:(s.prev+1)*g.v])
}

func (s *ngramState) ProposeIA(eventIdx int) (float64, float64) {
	g := s.g
	if s.prev < 0 || s.prev >= g.v || eventIdx < 0 || eventIdx >= g.v {
		return 0.5, 0.5
	}
	return g.iaMu[s.prev*g.v+eventIdx], g.iaSd[s.prev*g.v+eventIdx]
}

func (s *ngramState) CopyFrom(src draftState) {
	o, ok := src.(*ngramState)
	if !ok {
		panic(fmt.Sprintf("cptgpt: ngramState.CopyFrom(%T)", src))
	}
	*s = *o
}

// selfDraftStreams is the calibration population SelfDraft decodes (plainly)
// to fit its n-gram; selfDraftSeed fixes its randomness. The population is
// decoded under the machine's kernel set, so the draft — and therefore
// speculative output — is deterministic per model and kernel set.
const (
	selfDraftStreams = 160
	selfDraftSeed    = 0x5eed0d12af7
)

// draftCache lazily holds the model's self-fitted draft (see SelfDraft).
type draftCache struct {
	mu sync.Mutex
	d  *NGramDraft
}

// SelfDraft returns the model's self-distilled draft proposer, the one
// speculative decoding uses: an n-gram fitted on a small population the
// model itself generates (plain decoding, fixed internal seed). It needs
// no training data at hand, which is what lets a cptgpt model loaded from
// disk — a scenario source, say — decode speculatively out of the box. The
// draft is cached on the model and shared by all decoders; Train/FineTune
// invalidate it along with the float32 inference snapshot.
func (m *Model) SelfDraft() *NGramDraft {
	m.draft.mu.Lock()
	defer m.draft.mu.Unlock()
	if m.draft.d != nil {
		return m.draft.d
	}
	ds, err := m.Generate(GenOpts{
		NumStreams: selfDraftStreams,
		Device:     0,
		Seed:       selfDraftSeed,
	})
	if err != nil {
		// Generate can only fail on an invalid initial distribution, which
		// would have failed the caller's own decode too; fall back to an
		// uninformative draft rather than plumbing an error.
		ds = &trace.Dataset{Generation: m.Cfg.Generation}
	}
	m.draft.d = newNGramDraft(ds, m.Tok)
	return m.draft.d
}

// invalidateDraft drops the cached self-draft (weights changed).
func (m *Model) invalidateDraft() {
	m.draft.mu.Lock()
	m.draft.d = nil
	m.draft.mu.Unlock()
}
