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
	// splits a decode step over at most max(1, P/W) shards, so
	// W × fan-out ≤ P: the call never has more shards in flight than cores
	// it was given. GenerateRange runs one decoder (W = 1) with the whole
	// budget as its fan-out; at 1 every step runs inline on the calling
	// goroutine. A caller that parallelizes across chunks itself passes
	// each call its worker's share of the cores (the scenario engine: 1
	// with a chunk per core, more when chunks are fewer). Output is
	// identical at every setting: each stream's randomness comes from its
	// own index-seeded RNG.
	Parallelism int
	// Workers is a deprecated alias for Parallelism, honored when
	// Parallelism is 0.
	Workers int
	// BatchSize is the number of decode slots per BatchDecoder; 0 means
	// DefaultBatchSize. Output is identical at every batch size.
	BatchSize int
	// Lockstep disables continuous slot refill: each batch of BatchSize
	// streams is retired in full before the next batch starts, idling slots
	// whose streams stopped early. This is the pre-continuous scheduler,
	// kept as a benchmarking companion (see BenchmarkCPTGPTGenerateSkewed*);
	// output is identical either way.
	Lockstep bool
	// StartWindow, when positive, offsets each stream's start uniformly in
	// [0, StartWindow) seconds so downstream consumers (e.g. an MCN) do
	// not see a synchronized t=0 attach storm. Interarrivals, sojourns and
	// flow lengths are unaffected.
	StartWindow float64
	// Speculative enables speculative decoding: a cheap draft model
	// proposes DraftTokens tokens per slot and the transformer verifies
	// the whole chain in one multi-token pass, with acceptance–rejection
	// sampling preserving the output distribution exactly (see
	// speculate.go). Output remains deterministic per Seed at every
	// Parallelism × BatchSize, but differs stream-by-stream from the
	// non-speculative paths (different RNG consumption); workload
	// statistics match within the fidelity gates. Implies continuous
	// batching (Lockstep is ignored). The throughput win needs the
	// distribution head (the default); under the Table 8 ablation chains
	// cannot extend and speculation degrades to plain decoding speed.
	Speculative bool
	// DraftTokens is the number of draft tokens proposed per verify pass
	// (the speculation depth k); 0 means DefaultDraftTokens. Output is
	// deterministic per (Seed, DraftTokens) but differs across k — k
	// changes RNG consumption, not the output law.
	DraftTokens int
	// DraftModel proposes the draft chains. nil uses the model's
	// self-distilled n-gram (Model.SelfDraft, fitted once and cached);
	// NewSMMDraft adapts the paper's semi-Markov baseline. The draft only
	// moves the acceptance rate, never the output distribution.
	DraftModel DraftModel
	// Stats, when non-nil, accumulates the decode counters of every
	// BatchDecoder the call used (added atomically as workers finish):
	// scheduling steps plus, under Speculative, proposed/accepted draft
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
	switch {
	case o.Parallelism > 0:
		return o.Parallelism
	case o.Workers > 0:
		return o.Workers
	default:
		return tensor.Parallelism()
	}
}

// newCallDecoder makes one of a decode call's BatchDecoders: fanout is the
// decoder's share of the call's core budget (see GenOpts.Parallelism).
func (m *Model) newCallDecoder(batch, fanout int, opts GenOpts) *BatchDecoder {
	dec := m.NewBatchDecoder(batch, opts.Precision)
	dec.fanout = fanout
	dec.SetStepHist(opts.StepHist)
	return dec
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
// order (init.Sample, then the StartWindow uniform) that the serial,
// lockstep, continuous and speculative schedulers all share — the
// bit-identical-output and per-seed determinism contracts are exactly
// "same draws in the same order", so this helper is the only place that
// order may be defined.
func bootStream(s *trace.Stream, globalIdx int, opts GenOpts, init *stats.Categorical, vocab []events.Type, rng *rand.Rand) (evIdx int, start float64) {
	s.UEID = fmt.Sprintf("gen-%s-%06d", opts.Device, globalIdx)
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
// Scheduling is continuous batching: each of the call's workers (their
// number and per-step fan-out come from one core budget, see
// GenOpts.Parallelism) owns a BatchDecoder of BatchSize slots and claims
// stream indices from a shared counter; the moment a slot's stream emits
// STOP, the slot is reset and reseated with the next pending stream, so all
// slots stay hot even under heavily skewed stream-length distributions
// (GenOpts.Lockstep restores the retire-whole-batch scheduler for
// comparison). For a fixed Seed and Precision the output is bit-identical at
// every Parallelism, BatchSize and scheduling mode — every stream consumes
// only its own index-seeded RNG and its own slot state, so who decodes it
// when cannot matter.
func (m *Model) Generate(opts GenOpts) (*trace.Dataset, error) {
	if opts.NumStreams <= 0 {
		return nil, fmt.Errorf("cptgpt: NumStreams must be positive, got %d", opts.NumStreams)
	}
	if opts.Temperature <= 0 {
		opts.Temperature = 1
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	if batch > opts.NumStreams {
		batch = opts.NumStreams
	}
	numBatches := (opts.NumStreams + batch - 1) / batch
	budget := opts.parallelism()
	workers := min(budget, numBatches)
	fanout := max(1, budget/workers)

	init, err := stats.NewCategorical(m.InitialDist)
	if err != nil {
		return nil, fmt.Errorf("cptgpt: invalid initial-event distribution: %w", err)
	}

	// Speculative decoding resolves its draft model once, up front, so all
	// workers share it (the self-draft fit itself decodes plainly).
	var draft DraftModel
	if opts.Speculative {
		if draft = opts.DraftModel; draft == nil {
			draft = m.SelfDraft()
		}
	}

	streams := make([]trace.Stream, opts.NumStreams)
	var wg sync.WaitGroup
	if opts.Lockstep && !opts.Speculative {
		// Legacy scheduler: fixed index ranges, each batch retired in full.
		jobs := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// One decoder per worker, reused (Reset) across its batches.
				dec := m.newCallDecoder(batch, fanout, opts)
				defer func() { addDecodeStats(opts.Stats, dec.Stats()) }()
				for bi := range jobs {
					lo := bi * batch
					hi := min(lo+batch, opts.NumStreams)
					m.sampleBatch(dec, streams[lo:hi], lo, opts, init)
				}
			}()
		}
		for bi := 0; bi < numBatches; bi++ {
			jobs <- bi
		}
		close(jobs)
	} else {
		var next atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dec := m.newCallDecoder(batch, fanout, opts)
				defer func() { addDecodeStats(opts.Stats, dec.Stats()) }()
				if opts.Speculative {
					m.sampleSpeculative(dec, streams, 0, &next, opts, init, draft)
				} else {
					m.sampleContinuous(dec, streams, 0, &next, opts, init)
				}
			}()
		}
	}
	wg.Wait()

	return &trace.Dataset{Generation: m.Cfg.Generation, Streams: streams}, nil
}

// GenerateRange synthesizes the UE streams with global indices [lo, hi) of
// the population Generate would produce for the same opts: the returned
// slice equals Generate(opts).Streams[lo:hi] bit-for-bit whenever
// opts.NumStreams ≥ hi (batch_test pins this). Each stream consumes only
// its own index-seeded RNG, so chunked emission over any partition of the
// index space reproduces one full run — the streaming scenario engine pulls
// million-UE populations through this in O(chunk) memory, decoding each
// chunk through a continuously refilled BatchDecoder. It honours
// opts.Parallelism as that one decoder's per-step fan-out: a caller that
// runs chunks on goroutines of its own passes each call its goroutine's
// share of the cores, and at 1 every step runs inline.
func (m *Model) GenerateRange(lo, hi int, opts GenOpts) ([]trace.Stream, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("cptgpt: invalid stream range [%d,%d)", lo, hi)
	}
	if opts.Temperature <= 0 {
		opts.Temperature = 1
	}
	n := hi - lo
	if n == 0 {
		return nil, nil
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	if batch > n {
		batch = n
	}
	init, err := stats.NewCategorical(m.InitialDist)
	if err != nil {
		return nil, fmt.Errorf("cptgpt: invalid initial-event distribution: %w", err)
	}
	streams := make([]trace.Stream, n)
	dec := m.newCallDecoder(batch, opts.parallelism(), opts)
	defer func() { addDecodeStats(opts.Stats, dec.Stats()) }()
	switch {
	case opts.Speculative:
		draft := opts.DraftModel
		if draft == nil {
			draft = m.SelfDraft()
		}
		var next atomic.Int64
		m.sampleSpeculative(dec, streams, lo, &next, opts, init, draft)
	case opts.Lockstep:
		for blo := 0; blo < n; blo += batch {
			bhi := min(blo+batch, n)
			m.sampleBatch(dec, streams[blo:bhi], lo+blo, opts, init)
		}
	default:
		var next atomic.Int64
		m.sampleContinuous(dec, streams, lo, &next, opts, init)
	}
	return streams, nil
}

// sampleStep draws one decode step's fields from the head outputs: the next
// event index, the scaled interarrival (Gaussian-sampled under DistHead,
// deterministic scalar in the Table 8 ablation) and the stop flag. It is
// the single copy of the per-token RNG draw order that the serial,
// lockstep and continuous schedulers all share — the bit-identical-output
// contract between them is exactly "same draws in the same order", so this
// helper is the only place that order may be defined.
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

// sampleContinuous decodes the streams of out (global indices baseIdx+i)
// through dec with continuous batching: slots are seated by claiming the
// next unclaimed index from next (shared across all workers of a Generate
// call), and the moment a slot's stream stops — STOP token or MaxLen — the
// slot is reset and reseated with a fresh claim instead of idling until the
// rest of the batch drains. Per-stream output is invariant to seating: a
// stream's events depend only on its own index-seeded RNG and its own slot
// region, which is why continuous and lockstep scheduling emit bit-identical
// datasets.
func (m *Model) sampleContinuous(dec *BatchDecoder, out []trace.Stream, baseIdx int, next *atomic.Int64, opts GenOpts, init *stats.Categorical) {
	capacity := dec.Capacity()
	dim := m.Tok.Dim()
	vocab := m.Tok.Vocab()
	total := int64(len(out))

	rngs := make([]*rand.Rand, capacity)
	times := make([]float64, capacity)
	cur := make([]int, capacity) // stream index (into out) seated in each slot
	toks := make([]float64, capacity*dim)
	probs := make([]float64, m.Tok.V())

	// claim returns the next unclaimed stream index, or -1 when the
	// population is exhausted.
	claim := func() int {
		if i := next.Add(1) - 1; i < total {
			return int(i)
		}
		return -1
	}

	// seat boots stream li into slot via the shared bootStream helper (same
	// RNG draws in the same order as every other scheduler) and reports
	// whether the stream still needs decode steps.
	seat := func(slot, li int) bool {
		dec.ResetSlot(slot)
		rng := stats.NewRand(streamSeed(opts.Seed, baseIdx+li))
		rngs[slot] = rng
		cur[slot] = li
		s := &out[li]
		evIdx, start := bootStream(s, baseIdx+li, opts, init, vocab, rng)
		m.Tok.writeToken(toks[slot*dim:(slot+1)*dim], evIdx, 0, 0)
		times[slot] = start
		return len(s.Events) < m.Cfg.MaxLen
	}

	// refill claims streams into slot until one needs decoding; it returns
	// false when the population is exhausted.
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

	active := make([]int, 0, capacity)
	for slot := 0; slot < capacity; slot++ {
		if !refill(slot) {
			break
		}
		active = append(active, slot)
	}

	keep := make([]int, 0, capacity)
	for len(active) > 0 {
		outs := dec.Step(active, toks)
		keep = keep[:0]
		for j, slot := range active {
			rng := rngs[slot]
			s := &out[cur[slot]]

			nextEv, scaled, stopIdx := m.sampleStep(outs[j], opts.Temperature, rng, probs)
			times[slot] += m.Tok.UnscaleIA(scaled)
			s.Events = append(s.Events, trace.Event{Time: times[slot], Type: vocab[nextEv]})
			if stopIdx != 1 && len(s.Events) < m.Cfg.MaxLen {
				m.Tok.writeToken(toks[slot*dim:(slot+1)*dim], nextEv, scaled, stopIdx)
				keep = append(keep, slot)
				continue
			}
			// Stream finished: reseat the slot immediately so it decodes a
			// pending stream on the very next Step.
			if refill(slot) {
				keep = append(keep, slot)
			}
		}
		active, keep = keep, active
	}
}

// sampleBatch decodes len(out) UE streams (global indices baseIdx+i) in
// lockstep through dec. Streams leave the active set as they emit stop
// flags; the batch finishes when every stream has stopped or hit MaxLen —
// retired slots idle until then, which is what GenOpts.Lockstep exists to
// measure against continuous batching.
func (m *Model) sampleBatch(dec *BatchDecoder, out []trace.Stream, baseIdx int, opts GenOpts, init *stats.Categorical) {
	n := len(out)
	dec.Reset()
	dim := m.Tok.Dim()
	vocab := m.Tok.Vocab()

	rngs := make([]*rand.Rand, n)
	times := make([]float64, n)
	toks := make([]float64, n*dim)
	probs := make([]float64, m.Tok.V())
	active := make([]int, 0, n)

	// Bootstrap every stream through the shared helper, consuming the same
	// RNG draws in the same order as the serial reference path.
	for i := range out {
		rng := stats.NewRand(streamSeed(opts.Seed, baseIdx+i))
		rngs[i] = rng
		s := &out[i]
		evIdx, start := bootStream(s, baseIdx+i, opts, init, vocab, rng)
		m.Tok.writeToken(toks[i*dim:(i+1)*dim], evIdx, 0, 0)
		times[i] = start
		if len(s.Events) < m.Cfg.MaxLen {
			active = append(active, i)
		}
	}

	next := make([]int, 0, n)
	for len(active) > 0 {
		outs := dec.Step(active, toks)
		next = next[:0]
		for j, slot := range active {
			rng := rngs[slot]
			s := &out[slot]

			nextEv, scaled, stopIdx := m.sampleStep(outs[j], opts.Temperature, rng, probs)
			times[slot] += m.Tok.UnscaleIA(scaled)
			s.Events = append(s.Events, trace.Event{Time: times[slot], Type: vocab[nextEv]})
			if stopIdx == 1 || len(s.Events) >= m.Cfg.MaxLen {
				continue
			}
			m.Tok.writeToken(toks[slot*dim:(slot+1)*dim], nextEv, scaled, stopIdx)
			next = append(next, slot)
		}
		active, next = next, active
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
