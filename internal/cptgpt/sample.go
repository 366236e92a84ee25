package cptgpt

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"cptgpt/internal/events"
	"cptgpt/internal/stats"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
	"cptgpt/internal/tracez"
)

// GenOpts parameterizes synthetic dataset generation.
type GenOpts struct {
	// NumStreams is the UE population to synthesize (§4.5: the user invokes
	// the model once per UE).
	NumStreams int
	// Device labels the generated streams (one CPT-GPT model is trained per
	// device type, as in the paper's evaluation).
	Device events.DeviceType
	// Seed fixes sampling randomness.
	Seed uint64
	// Temperature scales event/stop logits at sampling time (1 = faithful).
	Temperature float64
	// Precision selects the decode arithmetic. F64 (the default) is the
	// bit-exact reference path; F32 decodes through the model's frozen
	// float32 inference snapshot with fused kernels — about half the memory
	// traffic of F64 — under its own per-seed determinism contract. For a
	// fixed precision, output is identical at every Parallelism × BatchSize.
	Precision Precision
	// Parallelism is the call's whole core budget P; 0 means the
	// tensor-layer default (GOMAXPROCS, or tensor.SetParallelism's value).
	// Generate runs W = min(P, batches) decoder goroutines and each decoder
	// splits a decode pass over at most max(1, P/W) shards, so
	// W × fan-out ≤ P: the call never has more shards in flight than cores
	// it was given. GenerateRange runs one decoder (W = 1) with the whole
	// budget as its fan-out; at 1 every pass runs inline on the calling
	// goroutine. A caller that parallelizes across chunks itself passes
	// each call its worker's share of the cores (the scenario engine: 1
	// with a chunk per core, more when chunks are fewer). Output is
	// identical at every setting: each stream's randomness comes from its
	// own index-seeded RNG.
	Parallelism int
	// BatchSize is the number of decode slots per BatchDecoder; 0 means
	// DefaultBatchSize. Output is identical at every batch size.
	BatchSize int
	// StartWindow, when positive, offsets each stream's start uniformly in
	// [0, StartWindow) seconds so downstream consumers (e.g. an MCN) do
	// not see a synchronized t=0 attach storm. Interarrivals, sojourns and
	// flow lengths are unaffected.
	StartWindow float64
	// Speculative gives the scheduler a draft length above 0: the model's
	// self-fitted n-gram (Model.SelfDraft, fitted once and cached) proposes
	// DraftTokens tokens behind each slot's pending token and the
	// transformer verifies the whole chain in the same pass, with
	// acceptance–rejection sampling preserving the output distribution
	// exactly (see speculate.go). Output remains deterministic per Seed at
	// every Parallelism × BatchSize, but differs stream-by-stream from
	// plain decoding (different RNG consumption); workload statistics match
	// within the fidelity gates. Chains extend only under the distribution
	// head (the default); under the Table 8 ablation almost every drafted
	// interarrival is rejected and a pass emits about one token.
	Speculative bool
	// DraftTokens is the number of draft tokens proposed per verify pass
	// (the speculation depth k); 0 means DefaultDraftTokens and a negative
	// value is an error, with or without Speculative. Output is
	// deterministic per (Seed, DraftTokens, kernel set) — the self-draft is
	// fitted by F32 decoding — but differs across k: k changes RNG
	// consumption, not the output law.
	DraftTokens int
	// draft is a test seam: a non-nil draft replaces Model.SelfDraft, so
	// tests can substitute an adversarial or a kernel-independent proposer.
	// The draft only moves the acceptance rate, never the output law.
	draft draftModel
	// Stats, when non-nil, accumulates the decode counters of every
	// BatchDecoder the call used (added atomically as workers finish):
	// decode passes plus, under Speculative, proposed/accepted draft
	// tokens — the acceptance-rate telemetry.
	Stats *DecodeStats
	// StepHist, when non-nil, observes every BatchDecoder.Step/StepK wall
	// duration (seconds) across all workers — the decode-step latency
	// distribution behind the daemon's native Prometheus histogram. It is
	// lock-free and never changes the generated output.
	StepHist *telemetry.Histogram
}

// parallelism resolves the call's core budget.
func (o GenOpts) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return tensor.Parallelism()
}

// draftTokens resolves the draft length: how many tokens the draft model
// proposes behind a slot's pending token per pass. Plain decoding is 0.
func (o GenOpts) draftTokens() int {
	if !o.Speculative {
		return 0
	}
	if o.DraftTokens > 0 {
		return o.DraftTokens
	}
	return DefaultDraftTokens
}

// streamSeed derives stream i's RNG seed; the per-stream RNG is the only
// randomness in decoding, which is what makes generation deterministic
// regardless of parallelism and batching.
func streamSeed(seed uint64, i int) uint64 {
	return seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15
}

// bootStream performs one stream's bootstrap: identity stamp, initial-event
// draw from the released distribution, optional start-window offset, and
// the first emitted event, consuming the stream's own RNG. Like sampleStep
// for the per-token draws, this is the single copy of the bootstrap draw
// order (init.Sample, then the StartWindow uniform) that the serial
// reference and the slot scheduler share — the bit-identical-output and
// per-seed determinism contracts are exactly "same draws in the same
// order", so this helper is the only place that order may be defined.
func bootStream(s *trace.Stream, globalIdx int, opts GenOpts, init *stats.Categorical, vocab []events.Type, rng *rand.Rand) (evIdx int, start float64) {
	s.UEID = trace.UEID("gen-", opts.Device, globalIdx)
	s.Device = opts.Device
	evIdx = init.Sample(rng)
	if opts.StartWindow > 0 {
		start = rng.Float64() * opts.StartWindow
	}
	s.Events = append(s.Events, trace.Event{Time: start, Type: vocab[evIdx]})
	return evIdx, start
}

// Generate synthesizes a dataset of NumStreams independent UE streams by
// autoregressive decoding. Each stream starts from a bootstrap token whose
// event type is drawn from the model's released initial-event-type
// distribution, with interarrival and stop flag zero (§4.5), and decoding
// runs until the model emits a token with stop flag 1 or MaxLen is reached.
//
// There is one scheduler (sampleSlots): each of the call's workers (their
// number and per-pass fan-out come from one core budget, see
// GenOpts.Parallelism) owns a BatchDecoder of BatchSize slots, claims stream
// indices from a shared counter and reseats a slot the moment its stream
// stops, so all slots stay hot even under heavily skewed stream-length
// distributions. Its draft length is 0 for plain decoding and DraftTokens
// under Speculative. For a fixed Seed, Precision and draft length the output
// is bit-identical at every Parallelism and BatchSize — every stream consumes
// only its own index-seeded RNG and its own slot state, so who decodes it
// when cannot matter.
func (m *Model) Generate(opts GenOpts) (*trace.Dataset, error) {
	if opts.NumStreams <= 0 {
		return nil, fmt.Errorf("cptgpt: NumStreams must be positive, got %d", opts.NumStreams)
	}
	streams, err := m.generateRange(0, opts.NumStreams, opts.parallelism(), opts)
	if err != nil {
		return nil, err
	}
	return &trace.Dataset{Generation: m.Cfg.Generation, Streams: streams}, nil
}

// GenerateRange synthesizes the UE streams with global indices [lo, hi):
// the returned slice equals Generate(opts).Streams[lo:hi] bit-for-bit for
// any NumStreams ≥ hi (batch_test pins this). The range alone sizes the
// call; opts.NumStreams is ignored. Each stream consumes only its own
// index-seeded RNG, so chunked emission over any partition of the index
// space reproduces one full run — the streaming scenario engine pulls
// million-UE populations through this in O(chunk) memory. It decodes the
// chunk through one BatchDecoder on the calling goroutine, with
// opts.Parallelism as that decoder's per-pass fan-out: a caller that runs
// chunks on goroutines of its own passes each call its goroutine's share of
// the cores, and at 1 every pass runs inline.
func (m *Model) GenerateRange(lo, hi int, opts GenOpts) ([]trace.Stream, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("cptgpt: invalid stream range [%d,%d)", lo, hi)
	}
	return m.generateRange(lo, hi, 1, opts)
}

// generateRange is the body of Generate and GenerateRange: it decodes the
// streams with global indices [lo, hi), hi ≥ lo, on at most maxDecoders
// decoders that claim indices from one counter. The calling goroutine is
// the first decoder — with maxDecoders 1 nothing leaves it, so a caller's
// recover() covers the decode — and every decoder gets an equal share of the
// call's core budget as its per-pass fan-out.
func (m *Model) generateRange(lo, hi, maxDecoders int, opts GenOpts) ([]trace.Stream, error) {
	if opts.DraftTokens < 0 {
		return nil, fmt.Errorf("cptgpt: DraftTokens must be ≥ 0, got %d", opts.DraftTokens)
	}
	if lo == hi {
		return nil, nil
	}
	if opts.Temperature <= 0 {
		opts.Temperature = 1
	}
	n := hi - lo
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	batch = min(batch, n)
	workers := min(maxDecoders, (n+batch-1)/batch)
	fanout := max(1, opts.parallelism()/workers)

	init, err := stats.NewCategorical(m.InitialDist)
	if err != nil {
		return nil, fmt.Errorf("cptgpt: invalid initial-event distribution: %w", err)
	}
	// A draft length above 0 needs a draft model, resolved once so all
	// workers share it (the self-draft fit itself decodes plainly).
	var draft draftModel
	if opts.draftTokens() > 0 {
		if draft = opts.draft; draft == nil {
			draft = m.SelfDraft()
		}
	}

	streams := make([]trace.Stream, n)
	var next atomic.Int64
	// Decoders come from, and go back to, the model's pool: a call reuses the
	// KV arena a finished call allocated. Taken once per call, so a pool
	// dropped by InvalidateInfer meanwhile only loses the decoders.
	pool := m.decoderPool(batch, opts.Precision)
	work := func() {
		dec, _ := pool.Get().(*BatchDecoder)
		if dec == nil {
			dec = m.NewBatchDecoder(batch, opts.Precision)
		}
		dec.fanout = fanout
		dec.SetStepHist(opts.StepHist)
		// The call reports its own passes, not the decoder's earlier ones.
		before := dec.Stats()
		defer func() {
			after := dec.Stats()
			addDecodeStats(opts.Stats, DecodeStats{
				Steps:         after.Steps - before.Steps,
				SlotSteps:     after.SlotSteps - before.SlotSteps,
				DraftProposed: after.DraftProposed - before.DraftProposed,
				DraftAccepted: after.DraftAccepted - before.DraftAccepted,
			})
		}()
		m.sampleSlots(dec, streams, lo, &next, opts, init, draft)
		pool.Put(dec)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return streams, nil
}

// sampleStep draws one decode step's fields from the head outputs: the next
// event index, the scaled interarrival (Gaussian-sampled under DistHead,
// deterministic scalar in the Table 8 ablation) and the stop flag. It is
// the single copy of the per-token RNG draw order that the serial reference
// and the slot scheduler share — the bit-identical-output contract between
// them is exactly "same draws in the same order", so this helper is the
// only place that order may be defined.
func (m *Model) sampleStep(so StepOut, temp float64, rng *rand.Rand, probs []float64) (nextEv int, scaled float64, stopIdx int) {
	nextEv = sampleLogitsInto(so.EventLogits, temp, rng, probs)
	if m.Cfg.DistHead {
		std := math.Exp(so.IALogStd)
		scaled = so.IAMean + std*rng.NormFloat64()
	} else {
		// Ablation (Table 8, "No dist. pred."): deterministic scalar.
		scaled = so.IAMean
	}
	scaled = math.Min(math.Max(scaled, 0), 1)
	stopIdx = sampleLogitsInto(so.StopLogits[:], temp, rng, probs)
	return nextEv, scaled, stopIdx
}

// seat is one decode slot's scheduling state: the stream seated in it, that
// stream's RNG and clock, and its pending token — emitted into the stream but
// not yet consumed by the transformer (the bootstrap token right after
// seating, then always the last token emitted).
type seat struct {
	s      *trace.Stream
	rng    *rand.Rand
	time   float64
	pendEv int
	pendIA float64
	// Draft-model state, nil at draft length 0: committed has observed the
	// stream's emitted tokens, scratch runs ahead of it along a draft chain.
	committed, scratch draftState
}

// sampleSlots is the one batched sampling loop: it decodes the streams of out
// (global indices baseIdx+i) through dec with continuous batching. Slots are
// seated by claiming the next unclaimed index from next (shared across all
// workers of a call), and the moment a slot's stream stops — STOP token or
// MaxLen — the slot is reset and reseated with a fresh claim instead of idling
// until the rest of the batch drains.
//
// A pass does the same four things per seated slot: put the pending token in
// row 0 and draft c ≥ 0 tokens behind it, run all c+1 rows through the
// transformer (StepK), play acceptance–rejection over the c drafted positions
// (speculate.go), and — if all of them survived — sample one more token from
// the pass's last heads. Plain decoding is draft length 0: no draft model
// (draft may be nil), one row per slot, and that last token is the only one
// a pass emits — sampleStep's draws, once per token, exactly as the serial
// reference makes them.
//
// Per-stream output is invariant to seating and to batch composition: a
// stream's events depend only on its own slot region and its own
// index-seeded RNG, drawn in a fixed order (draft, verify, free token).
func (m *Model) sampleSlots(dec *BatchDecoder, out []trace.Stream, baseIdx int, next *atomic.Int64, opts GenOpts, init *stats.Categorical, draft draftModel) {
	capacity := dec.Capacity()
	dim := m.Tok.Dim()
	vocab := m.Tok.Vocab()
	v := m.Tok.V()
	maxLen := m.Cfg.MaxLen
	temp := opts.Temperature
	k := opts.draftTokens()
	kMax := k + 1

	seats := make([]seat, capacity)
	if k > 0 {
		for i := range seats {
			seats[i].committed = draft.NewDraftState()
			seats[i].scratch = draft.NewDraftState()
		}
	}
	toks := make([]float64, capacity*kMax*dim) // slot-major, kMax rows per slot
	probs := make([]float64, v)
	// Drafted positions 1..k of every slot (row 0, the pending token, needs
	// no entry): the proposed token, the interarrival proposal it was drawn
	// from and, in chainQ, the event proposal pmf.
	type draftEnt struct {
		ev       int
		ia       float64
		qMu, qSd float64
	}
	chain := make([]draftEnt, capacity*k)
	chainQ := make([]float64, capacity*k*v)

	// refill seats the next unclaimed stream that needs decode passes in slot,
	// booting each claimed stream through the shared bootStream helper; it
	// returns false when the population is exhausted.
	refill := func(slot int) bool {
		st := &seats[slot]
		for {
			i := next.Add(1) - 1
			if i >= int64(len(out)) {
				return false
			}
			gi := baseIdx + int(i)
			dec.ResetSlot(slot)
			st.s = &out[i]
			st.rng = stats.NewRand(streamSeed(opts.Seed, gi))
			evIdx, start := bootStream(st.s, gi, opts, init, vocab, st.rng)
			st.time = start
			if len(st.s.Events) >= maxLen {
				continue
			}
			st.pendEv, st.pendIA = evIdx, 0
			if k > 0 {
				st.committed.Reset(evIdx)
			}
			return true
		}
	}

	// emit appends a sampled token to the slot's stream and reports whether
	// the stream goes on; if so the token becomes the slot's pending token.
	emit := func(st *seat, ev int, ia float64, stopIdx int) bool {
		st.time += m.Tok.UnscaleIA(ia)
		st.s.Events = append(st.s.Events, trace.Event{Time: st.time, Type: vocab[ev]})
		if stopIdx == 1 || len(st.s.Events) >= maxLen {
			return false
		}
		st.pendEv, st.pendIA = ev, ia
		if k > 0 {
			st.committed.Observe(ev, ia)
		}
		return true
	}

	active := make([]int, 0, capacity)
	for slot := 0; slot < capacity && refill(slot); slot++ {
		active = append(active, slot)
	}

	ks := make([]int, 0, capacity)
	keep := make([]int, 0, capacity)
	for len(active) > 0 {
		// Phase 1: draft a chain behind every slot's pending token. A plain
		// pass has no draft or verify phase to account.
		var draftSp, verifySp tracez.Active
		if k > 0 {
			draftSp = tracez.Begin(tracez.StageDecodeDraft, "")
		}
		ks = ks[:0]
		for _, slot := range active {
			st := &seats[slot]
			c := min(k, maxLen-len(st.s.Events))
			rows := toks[slot*kMax*dim : (slot+1)*kMax*dim]
			m.Tok.writeToken(rows[:dim], st.pendEv, st.pendIA, 0)
			if c > 0 {
				st.scratch.CopyFrom(st.committed)
			}
			for r := 1; r <= c; r++ {
				ce := &chain[slot*k+r-1]
				q := chainQ[(slot*k+r-1)*v : (slot*k+r)*v]
				st.scratch.Propose(q)
				ce.ev = drawProbs(q, st.rng)
				ce.qMu, ce.qSd = st.scratch.ProposeIA(ce.ev)
				if m.Cfg.DistHead {
					ce.ia = clamp01(ce.qMu + ce.qSd*st.rng.NormFloat64())
				} else {
					ce.ia = clamp01(ce.qMu)
				}
				st.scratch.Observe(ce.ev, ce.ia)
				m.Tok.writeToken(rows[r*dim:(r+1)*dim], ce.ev, ce.ia, 0)
			}
			ks = append(ks, c+1)
		}
		draftSp.End(int64(len(active)), "")

		// Phase 2: one pass for the whole batch (it records its own span).
		outs := dec.StepK(active, ks, kMax, toks)

		// Phase 3: acceptance–rejection over each slot's chain, then the free
		// token.
		if k > 0 {
			verifySp = tracez.Begin(tracez.StageDecodeVerify, "")
		}
		keep = keep[:0]
		var propTotal, accTotal int64
		for j, slot := range active {
			st := &seats[slot]
			c := ks[j] - 1
			pos0 := dec.Pos(slot) - (c + 1) // slot position before the pass
			propTotal += int64(c)
			live, i := true, 1
			for ; live && i <= c; i++ {
				h := outs[j][i-1] // target conditional for chain position i
				ce := chain[slot*k+i-1]

				softmaxInto(probs, h.EventLogits, temp)
				ev, okEv := verifyEvent(ce.ev, chainQ[(slot*k+i-1)*v:(slot*k+i)*v], probs, st.rng)
				pSd := math.Exp(h.IALogStd) // unused when !DistHead
				ia, okIA := verifyIA(ce.ia, ce.qMu, ce.qSd, h.IAMean, pSd, m.Cfg.DistHead, st.rng)
				stopIdx := 0
				if st.rng.Float64() >= stopContinueProb(h.StopLogits, temp) {
					stopIdx = 1
				}

				live = emit(st, ev, ia, stopIdx)
				if !(okEv && okIA) {
					// Rejection: the emitted replacement is the pending token;
					// drop the chain's unverified suffix.
					dec.TruncateSlot(slot, pos0+i)
					break
				}
				accTotal++
			}
			if live && i > c {
				// The whole chain was consumed as emitted (always, at draft
				// length 0): the pass's last heads condition on exactly the
				// stream so far, so the next token is sampled from them.
				ev, scaled, stopIdx := m.sampleStep(outs[j][c], temp, st.rng, probs)
				live = emit(st, ev, scaled, stopIdx)
			}
			// A finished stream's slot is reseated at once, so it decodes a
			// pending stream on the very next pass.
			if live || refill(slot) {
				keep = append(keep, slot)
			}
		}
		dec.draftProposed.Add(propTotal)
		dec.draftAccepted.Add(accTotal)
		verifySp.End(accTotal, "")
		active, keep = keep, active
	}
}

// sampleStream decodes one UE stream through the serial decoder. It is the
// reference implementation the batched path is tested against (identical
// output for identical opts.Seed and stream index).
func (m *Model) sampleStream(idx int, opts GenOpts, init *stats.Categorical, rng *rand.Rand) trace.Stream {
	vocab := m.Tok.Vocab()
	dec := newDecoder(m)

	// Bootstrap token: sampled initial event, interarrival 0, stop 0 (the
	// shared helper defines the draw order).
	var s trace.Stream
	evIdx, t := bootStream(&s, idx, opts, init, vocab, rng)
	tok := make([]float64, m.Tok.Dim())
	probs := make([]float64, m.Tok.V())
	m.Tok.writeToken(tok, evIdx, 0, 0)

	for len(s.Events) < m.Cfg.MaxLen {
		nextEv, scaled, stopIdx := m.sampleStep(dec.step(tok), opts.Temperature, rng, probs)
		t += m.Tok.UnscaleIA(scaled)
		s.Events = append(s.Events, trace.Event{Time: t, Type: vocab[nextEv]})
		if stopIdx == 1 {
			break
		}
		m.Tok.writeToken(tok, nextEv, scaled, stopIdx)
	}
	return s
}

// expUnderflow is math.Exp's underflow threshold: for arguments strictly
// below it Exp returns exactly 0, so the call can be skipped without
// changing a single bit of the result.
const expUnderflow = -7.45133219101941108420e+02

// sampleLogitsInto is sampleLogits with caller-provided probability scratch
// (len(probs) ≥ len(logits)). It max-shifts the logits before
// exponentiating and early-exits the math.Exp call for entries so far below
// the max that Exp underflows to zero anyway — when one candidate dominates
// (the common case for the 2-way stop head late in a stream), most of the
// vocabulary skips the transcendental entirely. The temperature division is
// elided at temp == 1 (faithful sampling, the default), which is exact.
// Results are bit-identical to the straightforward implementation; the
// regression test pins sampled indices against it.
func sampleLogitsInto(logits []float64, temp float64, rng *rand.Rand, probs []float64) int {
	maxv := math.Inf(-1)
	if temp == 1 {
		for _, v := range logits {
			if v > maxv {
				maxv = v
			}
		}
	} else {
		for _, v := range logits {
			if v/temp > maxv {
				maxv = v / temp
			}
		}
	}
	var sum float64
	probs = probs[:len(logits)]
	for i, v := range logits {
		z := v - maxv
		if temp != 1 {
			z = v/temp - maxv
		}
		var p float64
		if z >= expUnderflow {
			p = math.Exp(z)
		}
		probs[i] = p
		sum += p
	}
	u := rng.Float64() * sum
	for i, p := range probs {
		u -= p
		if u < 0 {
			return i
		}
	}
	return len(logits) - 1
}
