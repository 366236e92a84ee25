package cptgpt

import (
	"fmt"
	"strings"
	"sync"

	"cptgpt/internal/nn"
)

// Precision selects the arithmetic of the decode fast path.
//
// Training is always float64 — its determinism contract (bit-identical
// weights at every parallelism degree) depends on exact accumulation —
// but generation is read-only, and at million-UE populations decode is
// memory-bandwidth bound: every step streams the full weight set plus the
// stream's KV cache through the core. F32 decodes through a frozen float32
// snapshot of the weights (InferModel) with fused row kernels and a
// contiguous float32 KV arena, roughly halving that traffic.
type Precision uint8

const (
	// F64 is the bit-exact float64 reference path: output is bit-identical
	// to the original serial decoder at every Parallelism × BatchSize.
	F64 Precision = iota
	// F32 is the fast float32 inference path. It has its own determinism
	// contract — the same Seed × Parallelism × BatchSize always reproduces
	// the same output, and output is identical across Parallelism and
	// BatchSize settings — but its streams differ (within distributional
	// tolerance, see the fidelity tests) from the F64 path's.
	F32
)

// String renders the precision as its flag spelling.
func (p Precision) String() string {
	if p == F32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision parses a precision flag value. The empty string means F64,
// the bit-exact default.
func ParsePrecision(s string) (Precision, error) {
	switch strings.ToLower(s) {
	case "", "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	}
	return F64, fmt.Errorf("cptgpt: unknown precision %q (want f64 or f32)", s)
}

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
// mutex (not sync.Once) so Train can drop a stale snapshot — and the F32
// decoders bound to it — after updating weights.
type inferCache struct {
	mu       sync.Mutex
	inf      *InferModel
	decoders map[decoderKey]*sync.Pool
}

// decoderKey identifies interchangeable BatchDecoders of one model.
type decoderKey struct {
	capacity int
	prec     Precision
}

// decoderPool returns the pool of m's finished decoders of one capacity and
// precision. A pooled decoder's slots hold stale cache rows, which the
// slot-reset contract makes unreachable, so reusing one decodes exactly what
// a fresh one would.
func (m *Model) decoderPool(capacity int, prec Precision) *sync.Pool {
	m.infer.mu.Lock()
	defer m.infer.mu.Unlock()
	key := decoderKey{capacity, prec}
	p := m.infer.decoders[key]
	if p == nil {
		if m.infer.decoders == nil {
			m.infer.decoders = make(map[decoderKey]*sync.Pool)
		}
		p = new(sync.Pool)
		m.infer.decoders[key] = p
	}
	return p
}

// Infer returns the model's float32 inference snapshot, freezing the current
// weights on first use. The snapshot is cached — every F32 BatchDecoder of
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
