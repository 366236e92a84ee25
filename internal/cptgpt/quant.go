package cptgpt

import (
	"sync"

	"cptgpt/internal/nn"
)

// Precision names a decode arithmetic. F32 is its only value: generation
// decodes through a frozen float32 snapshot of the weights (InferModel) with
// fused row kernels and a contiguous float32 KV arena. Training stays
// float64 — its determinism contract (bit-identical weights at every
// parallelism degree) depends on exact accumulation — but decode is
// read-only and, at million-UE populations, memory-bandwidth bound.
//
// The type and F32 remain only because the benchmark harness (cptbench)
// calls NewBatchDecoder(capacity, F32).
type Precision uint8

// F32 is the float32 decode arithmetic, the zero Precision.
const F32 Precision = 0

// InferModel is a frozen float32 inference snapshot of a Model: every weight
// matrix converted once into a contiguous float32 row-major panel (linears
// transposed so the decode GEMM reads each output's weights with unit
// stride). The snapshot is immutable and shares no storage with the live
// float64 parameters, so any number of BatchDecoders — across goroutines —
// can read it concurrently.
type InferModel struct {
	inProj nn.LinearF32
	posEmb []float32 // MaxLen × DModel
	blocks []inferBlock
	final  nn.LayerNormF32

	eventHd, iaHd, stopHd nn.MLPF32
}

// inferBlock is one decoder block's frozen weights.
type inferBlock struct {
	ln1, ln2       nn.LayerNormF32
	wq, wk, wv, wo nn.LinearF32
	ffIn, ffOut    nn.LinearF32
	heads          int
}

// newInferModel freezes m's current weights.
func newInferModel(m *Model) *InferModel {
	inf := &InferModel{
		inProj:  m.InProj.ExportF32(),
		posEmb:  make([]float32, len(m.PosEmb.Data)),
		final:   m.Final.ExportF32(),
		eventHd: m.EventHd.ExportF32(),
		iaHd:    m.IAHd.ExportF32(),
		stopHd:  m.StopHd.ExportF32(),
	}
	for i, v := range m.PosEmb.Data {
		inf.posEmb[i] = float32(v)
	}
	inf.blocks = make([]inferBlock, len(m.BlocksNN))
	for i, b := range m.BlocksNN {
		inf.blocks[i] = inferBlock{
			ln1:   b.LN1.ExportF32(),
			ln2:   b.LN2.ExportF32(),
			wq:    b.Attn.Wq.ExportF32(),
			wk:    b.Attn.Wk.ExportF32(),
			wv:    b.Attn.Wv.ExportF32(),
			wo:    b.Attn.Wo.ExportF32(),
			ffIn:  b.FF.In.ExportF32(),
			ffOut: b.FF.Out.ExportF32(),
			heads: b.Attn.Heads,
		}
	}
	return inf
}

// inferCache is the lazily built, invalidatable InferModel cache hanging off
// a Model, and the pools of finished decoders that Generate and
// GenerateRange reuse instead of allocating a KV arena per call. A plain
// mutex (not sync.Once) so Train can drop a stale snapshot — and the
// decoders bound to it — after updating weights.
type inferCache struct {
	mu       sync.Mutex
	inf      *InferModel
	decoders map[int]*sync.Pool // by capacity
}

// decoderPool returns the pool of m's finished decoders of one capacity. A
// pooled decoder's slots hold stale cache rows, which the slot-reset
// contract makes unreachable, so reusing one decodes exactly what a fresh
// one would.
func (m *Model) decoderPool(capacity int) *sync.Pool {
	m.infer.mu.Lock()
	defer m.infer.mu.Unlock()
	p := m.infer.decoders[capacity]
	if p == nil {
		if m.infer.decoders == nil {
			m.infer.decoders = make(map[int]*sync.Pool)
		}
		p = new(sync.Pool)
		m.infer.decoders[capacity] = p
	}
	return p
}

// Infer returns the model's float32 inference snapshot, freezing the current
// weights on first use. The snapshot is cached — every BatchDecoder of
// this model shares it — and safe for concurrent use. Train and FineTune
// invalidate the cache when they update weights; mutating parameters by hand
// requires calling InvalidateInfer explicitly.
func (m *Model) Infer() *InferModel {
	m.infer.mu.Lock()
	defer m.infer.mu.Unlock()
	if m.infer.inf == nil {
		m.infer.inf = newInferModel(m)
	}
	return m.infer.inf
}

// InvalidateInfer drops the derived inference state — the cached float32
// snapshot, the pooled decoders and the self-fitted speculative draft — so
// the next use re-derives them from the (presumably updated) weights.
func (m *Model) InvalidateInfer() {
	m.infer.mu.Lock()
	m.infer.inf = nil
	m.infer.decoders = nil
	m.infer.mu.Unlock()
	m.invalidateDraft()
}
