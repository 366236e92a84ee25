package cptgpt

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"cptgpt/internal/telemetry"
	"cptgpt/internal/tensor"
	"cptgpt/internal/tracez"
)

// DefaultBatchSize is the number of UE streams a BatchDecoder steps per
// batch when GenOpts.BatchSize is unset. Batching amortizes scheduling
// and cache traffic across streams; the per-stream math is unchanged.
const DefaultBatchSize = 32

// BatchDecoder steps up to capacity independent UE streams through the
// transformer.
//
// In the F64 reference path a slot is the serial decoder: slot i owns one
// decoder (its KV cache and scratch) and steps it row by row, and slots
// never read each other's state. Output is therefore bit-identical to
// decoding every stream alone, regardless of how many worker goroutines the
// step fans out over — the property the determinism tests pin down. In the
// F32 fast path the whole cache is one contiguous float32 arena (blocks ×
// slots × MaxLen rows of interleaved [K|V]), and a pass packs the rows of
// every slot a worker steps through the float32 kernels of infer32.go (one
// GEMM per layer) over the frozen InferModel snapshot; a row's result does
// not depend on the rows packed around it, so it is just as invariant to
// batching and fan-out — deterministic per seed and GEMM kernel, but not
// bit-compatible with F64.
//
// Slot-reset contract (continuous batching): a slot's KV-cache rows and
// score/accumulator scratch are meaningful only for positions < Pos(slot).
// ResetSlot rewinds one slot to position 0, making all of its prior cache
// contents unreachable — no zeroing needed — so a finished stream's slot can
// be refilled with a fresh stream mid-batch while other slots keep decoding
// at their own positions. Reset is ResetSlot over every slot.
type BatchDecoder struct {
	m        *Model
	prec     Precision
	inf      *InferModel // frozen f32 snapshot; non-nil iff prec == F32
	capacity int
	pos      []int // per-slot position

	// fanout is the most shards a Step/StepK pass is split into. 0 (a
	// decoder used directly) means the tensor layer's global degree;
	// Generate and GenerateRange set each of their decoders' share of the
	// call's GenOpts.Parallelism budget, and 1 runs the pass inline.
	fanout int

	// Lifetime counters (see Stats). Atomics: Step/StepK run on the
	// decoder's owning goroutine, but Stats may be read concurrently by a
	// monitor (and Generate aggregates worker decoders' counters while the
	// race detector watches), so every access is atomic.
	steps, slotSteps             atomic.Int64
	draftProposed, draftAccepted atomic.Int64

	// stepHist, when set, observes each Step/StepK wall duration in
	// seconds (see SetStepHist). Lock-free, so decoders on different
	// workers may share one histogram.
	stepHist *telemetry.Histogram

	// Row-packed pass state, shared by Step (one row per slot) and StepK.
	// A pass lists slots[i] with ks[i] rows each; row r of slots[i] is packed
	// row rowOff[i]+r, so a ParallelFor shard [lo, hi) owns the contiguous
	// packed rows [rowOff[lo], rowOff[hi]). Every row buffer below holds
	// capacity × kMax rows, grown on demand by ensureRows.
	kMax   int
	rowOff []int       // capacity+1: prefix sum of the pass's ks
	ones   []int       // capacity ones: Step's ks
	outs   []StepOut   // one per packed row
	outsK  [][]StepOut // StepK's per-listed-slot windows into outs
	// Event logits by packed row (both precisions, so StepOut and the
	// sampling loop are precision-agnostic); the f32 path also widens its
	// other two heads into iaOut and stopOut.
	evOut          []float64 // rows × V
	iaOut, stopOut []float64 // rows × (1 or 2), rows × 2; F32 only

	// F64 state: slot i is the serial decoder dec64[i], its cache and
	// scratch included. d.pos stays the slot's position; stepSlotF64
	// rewinds the decoder to it.
	dec64 []*decoder

	// F32 state. kv32 is the contiguous KV arena: block-major, each
	// (block, slot) pair owning MaxLen rows of 2×DModel interleaved [K|V]
	// values (half the bytes of the f64 cache). The rest is packed-row
	// scratch.
	kv32                        []float32
	attScratch32                []float32 // capacity × max(MaxLen, 2×Heads)
	tok32                       []float32 // rows × Dim
	x32, q32, k32, v32          []float32 // rows × DModel
	att32, tmp32                []float32 // rows × DModel
	ff32                        []float32 // rows × MLPHidden
	hid32, hid232               []float32 // rows × widest head layer
	evOut32, iaOut32, stopOut32 []float32 // rows × head widths
}

// NewBatchDecoder creates a decoder that can step up to capacity streams at
// the given precision (F64: bit-exact reference; F32: row-packed float32 fast
// path over the model's frozen Infer snapshot). The decoder is reusable
// across batches via Reset/ResetSlot.
func (m *Model) NewBatchDecoder(capacity int, prec Precision) *BatchDecoder {
	if capacity < 1 {
		panic(fmt.Sprintf("cptgpt: BatchDecoder capacity must be ≥ 1, got %d", capacity))
	}
	dm := m.Cfg.DModel
	d := &BatchDecoder{m: m, prec: prec, capacity: capacity}
	d.pos = make([]int, capacity)
	d.rowOff = make([]int, capacity+1)
	d.ones = make([]int, capacity)
	for i := range d.ones {
		d.ones[i] = 1
	}
	d.outsK = make([][]StepOut, capacity)
	switch prec {
	case F32:
		d.inf = m.Infer()
		d.kv32 = make([]float32, len(m.BlocksNN)*capacity*m.Cfg.MaxLen*2*dm)
		d.attScratch32 = make([]float32, capacity*max(m.Cfg.MaxLen, 2*m.Cfg.Heads))
	default:
		d.dec64 = make([]*decoder, capacity)
		for i := range d.dec64 {
			d.dec64[i] = newDecoder(m)
		}
	}
	d.ensureRows(1)
	return d
}

// ensureRows sizes the packed-row buffers for up to kMax rows per slot. Grow-
// only: the first StepK of a Generate run allocates, steady state reuses.
func (d *BatchDecoder) ensureRows(kMax int) {
	if kMax <= d.kMax {
		return
	}
	m := d.m
	rows := d.capacity * kMax
	v := m.Tok.V()
	iaW := d.iaWidth()
	d.kMax = kMax
	d.outs = make([]StepOut, rows)
	d.evOut = make([]float64, rows*v)
	if d.prec == F32 {
		dm := m.Cfg.DModel
		hw := headHiddenMax(m)
		d.iaOut = make([]float64, rows*iaW)
		d.stopOut = make([]float64, rows*2)
		d.tok32 = make([]float32, rows*m.Tok.Dim())
		d.x32 = make([]float32, rows*dm)
		d.q32 = make([]float32, rows*dm)
		d.k32 = make([]float32, rows*dm)
		d.v32 = make([]float32, rows*dm)
		d.att32 = make([]float32, rows*dm)
		d.tmp32 = make([]float32, rows*dm)
		d.ff32 = make([]float32, rows*m.Cfg.MLPHidden)
		d.hid32 = make([]float32, rows*hw)
		d.hid232 = make([]float32, rows*hw)
		d.evOut32 = make([]float32, rows*v)
		d.iaOut32 = make([]float32, rows*iaW)
		d.stopOut32 = make([]float32, rows*2)
	}
}

// iaWidth is the interarrival head's output width (2 with a distribution
// head, else 1).
func (d *BatchDecoder) iaWidth() int {
	return d.m.IAHd.Layers[len(d.m.IAHd.Layers)-1].W.Cols
}

// Capacity returns the number of decode slots.
func (d *BatchDecoder) Capacity() int { return d.capacity }

// Pos returns slot's current position (tokens consumed).
func (d *BatchDecoder) Pos(slot int) int { return d.pos[slot] }

// Reset rewinds every slot to position 0, keeping all allocations. See the
// slot-reset contract in the type documentation: rewinding a position makes
// the slot's cached keys/values unreachable, so no buffer is cleared.
func (d *BatchDecoder) Reset() {
	for i := range d.pos {
		d.pos[i] = 0
	}
}

// ResetSlot rewinds a single slot to position 0 so continuous batching can
// seat a new stream in it while the other slots keep decoding. The slot's
// KV rows, scores and accumulators above position 0 become stale garbage
// that the next stream overwrites position by position — they are never
// read, because every kernel is bounded by the slot's own pos.
func (d *BatchDecoder) ResetSlot(slot int) { d.pos[slot] = 0 }

// TruncateSlot rewinds a slot to position pos < Pos(slot), discarding the
// cached keys/values above it under the same slot-reset contract as
// ResetSlot (stale rows are unreachable, never cleared). Speculative
// decoding uses this to drop the draft-chain suffix after the first
// rejected position: the accepted prefix's cache rows stay valid, and the
// resampled token is consumed on the next verify pass.
func (d *BatchDecoder) TruncateSlot(slot, pos int) {
	if pos < 0 || pos > d.pos[slot] {
		panic(fmt.Sprintf("cptgpt: TruncateSlot(%d, %d) outside [0, %d]", slot, pos, d.pos[slot]))
	}
	d.pos[slot] = pos
}

// DecodeStats is a snapshot of a BatchDecoder's lifetime counters.
//
// Steps counts Step/StepK calls and SlotSteps the slot-tokens decoded across
// them; SlotSteps / (Steps × Capacity × rows-per-slot) is the slot
// utilization continuous batching keeps near 1 on skewed stream-length
// populations. DraftProposed and DraftAccepted count speculative draft
// tokens offered to and fully accepted by the verify pass (zero outside
// speculative decoding); DraftAccepted / DraftProposed is the acceptance
// rate — the fraction of verify positions that became emitted tokens, the
// currency a draft model is judged in.
type DecodeStats struct {
	Steps, SlotSteps             int64
	DraftProposed, DraftAccepted int64
}

// Load atomically snapshots a DecodeStats that other goroutines are still
// accumulating into (a GenOpts.Stats sink mid-generation). Each field is
// read atomically; the fields may be mid-update relative to one another.
func (s *DecodeStats) Load() DecodeStats {
	return DecodeStats{
		Steps:         atomic.LoadInt64(&s.Steps),
		SlotSteps:     atomic.LoadInt64(&s.SlotSteps),
		DraftProposed: atomic.LoadInt64(&s.DraftProposed),
		DraftAccepted: atomic.LoadInt64(&s.DraftAccepted),
	}
}

// Stats returns a consistent-enough snapshot of the decoder's lifetime
// counters. It is safe to call concurrently with Step/StepK (each counter is
// read atomically; the counters may be mid-update relative to one another).
func (d *BatchDecoder) Stats() DecodeStats {
	return DecodeStats{
		Steps:         d.steps.Load(),
		SlotSteps:     d.slotSteps.Load(),
		DraftProposed: d.draftProposed.Load(),
		DraftAccepted: d.draftAccepted.Load(),
	}
}

// SetStepHist attaches a lock-free duration histogram that observes every
// Step/StepK wall time in seconds (nil detaches). The histogram's own
// accounting is atomic, so the samplers' worker decoders can all share the
// caller's one instrument. When unset, Step/StepK take no timestamps.
func (d *BatchDecoder) SetStepHist(h *telemetry.Histogram) { d.stepHist = h }

// stepCost estimates the multiply-adds of one stream's decode step, used to
// decide whether a batch is worth fanning out across the worker pool.
func (d *BatchDecoder) stepCost() int {
	dm := d.m.Cfg.DModel
	return len(d.m.BlocksNN) * (4*dm*dm + 2*dm*d.m.Cfg.MLPHidden)
}

// Step advances each listed slot by one token and returns the head outputs,
// one StepOut per slot in slots order. tokens is the slot-major token
// buffer: slot s reads tokens[s*Dim() : (s+1)*Dim()]. The returned slice
// and the EventLogits inside it alias decoder-owned scratch, valid only
// until the next Step/StepK.
//
// Step is StepK with one row per slot: the same row body, the same kernels,
// so a token's head outputs do not depend on which of the two consumed it.
// Slots are processed independently, each at its own position — continuous
// batching mixes fresh and deep slots freely — and a slot panics past MaxLen
// exactly like the serial decoder. A decoder used directly shards a pass
// over the tensor worker pool at the global degree; one made by Generate or
// GenerateRange over its share of the call's GenOpts.Parallelism, inline on
// the calling goroutine when that share is one core.
func (d *BatchDecoder) Step(slots []int, tokens []float64) []StepOut {
	d.stepRows(slots, d.ones[:len(slots)], 1, tokens)
	return d.outs[:len(slots)]
}

// StepK is the multi-token verify / batched prefill kernel: it advances each
// listed slot by ks[i] tokens in one pass, appending every token's keys and
// values to the slot's cache and returning the head outputs after each
// position — outsK[i][r] is the model's conditional after slot slots[i]
// consumed its rows 0..r. tokens is slot-major with kMax rows per slot: slot
// s's row r is tokens[(s*kMax+r)*Dim() : ...+Dim()].
//
// Causality is preserved position by position: row r's attention sees
// exactly the cache up to row r, and every other kernel is per-row, so the
// outputs are bit-identical to stepping the same tokens one Step at a time,
// at either precision and under either float32 GEMM kernel.
//
// Per-slot results are independent of which slots share the pass and of the
// worker fan-out, so speculative decoding inherits the determinism contract.
// The returned slices alias decoder-owned scratch, valid until the next
// Step/StepK. Speculative rejection rewinds a slot's suffix via
// TruncateSlot; the same kernel prefills prompted generation by feeding the
// prompt's tokens as one chain.
func (d *BatchDecoder) StepK(slots []int, ks []int, kMax int, tokens []float64) [][]StepOut {
	if len(ks) != len(slots) {
		panic(fmt.Sprintf("cptgpt: StepK with %d slots but %d row counts", len(slots), len(ks)))
	}
	for i, k := range ks {
		if k < 1 || k > kMax {
			panic(fmt.Sprintf("cptgpt: StepK slot %d rows %d outside [1, %d]", slots[i], k, kMax))
		}
	}
	d.stepRows(slots, ks, kMax, tokens)
	for i, k := range ks {
		d.outsK[i] = d.outs[d.rowOff[i] : d.rowOff[i]+k]
	}
	return d.outsK[:len(slots)]
}

// stepRows is the one pass driver behind Step and StepK: it packs the pass's
// (slot, row) pairs into consecutive rows (rowOff), splits the listed slots
// into at most fanout shards, and accounts the pass under its trace stage:
// decode.step for a pass of one row per slot (a plain decode pass, whether it
// came through Step or through the scheduler's StepK at draft length 0),
// decode.stepk for a multi-row pass.
// On the F32 path a shard runs its packed rows through every linear layer as
// one GEMM (stepRowsF32); on the F64 path each row runs the reference row
// body on its own.
func (d *BatchDecoder) stepRows(slots, ks []int, kMax int, tokens []float64) {
	d.ensureRows(kMax)
	stage := tracez.StageDecodeStep
	if kMax > 1 {
		stage = tracez.StageDecodeStepK
	}
	total := 0
	for i, k := range ks {
		d.rowOff[i] = total
		total += k
	}
	d.rowOff[len(ks)] = total
	sp := tracez.Begin(stage, "")
	var t0 time.Time
	if d.stepHist != nil {
		t0 = time.Now()
	}
	d.steps.Add(1)
	d.slotSteps.Add(int64(total))
	f32 := d.prec == F32
	fanout := d.fanout
	if fanout == 0 {
		fanout = tensor.Parallelism()
	}
	tensor.ParallelForN(fanout, len(slots), d.stepCost()*kMax, func(lo, hi int) {
		if f32 {
			d.stepRowsF32(slots, ks, lo, hi, kMax, tokens)
			return
		}
		for i := lo; i < hi; i++ {
			d.stepSlotF64(slots[i], ks[i], d.rowOff[i], kMax, tokens)
		}
	})
	if d.stepHist != nil {
		d.stepHist.Observe(time.Since(t0).Seconds())
	}
	sp.End(int64(total), "")
}

// stepSlotF64 runs one slot's k rows through the slot's serial decoder, one
// row after the other, writing packed rows row0.. of the head outputs. The
// decoder is first rewound to the slot's position (ResetSlot and TruncateSlot
// move only d.pos). Its event logits are copied into the packed row, because
// a StepK chain's rows all come out of the one decoder.
func (d *BatchDecoder) stepSlotF64(slot, k, row0, kMax int, tokens []float64) {
	dim := d.m.Tok.Dim()
	v := d.m.Tok.V()
	dec := d.dec64[slot]
	dec.rewind(d.pos[slot])
	for r := 0; r < k; r++ {
		row := row0 + r
		out := dec.step(tokens[(slot*kMax+r)*dim : (slot*kMax+r+1)*dim])
		out.EventLogits = d.evOut[row*v : (row+1)*v]
		copy(out.EventLogits, dec.evOut)
		d.outs[row] = out
		d.pos[slot]++
	}
}

// fillStepOut assembles one StepOut from head-output regions.
func fillStepOut(out *StepOut, distHead bool, evOut, iaOut, stopOut []float64) {
	out.EventLogits = evOut
	out.IAMean = iaOut[0]
	if distHead {
		out.IALogStd = math.Min(math.Max(iaOut[1], -6), 2)
	} else {
		out.IALogStd = math.NaN()
	}
	out.StopLogits = [2]float64{stopOut[0], stopOut[1]}
}
