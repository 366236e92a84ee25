package main

import (
	"math/rand/v2"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/tensor"
)

// Probes time one kernel alone, on one worker, at the shape the workload
// that reports them drives it at. They run after the traced rounds and say
// whether a workload's change came from the kernel or from its scheduling.

// probeFor is how long one probe measures.
var probeFor = 500 * time.Millisecond

// probe calls fn on one worker until probeFor has passed and returns the
// mean seconds per call.
func probe(fn func()) float64 {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	fn() // page in operands
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < probeFor {
		fn()
		calls++
	}
	return time.Since(t0).Seconds() / float64(calls)
}

func randF32(n int, rng *rand.Rand) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func probeMatMulF64(rows, in, out int) float64 {
	rng := rand.New(rand.NewPCG(1, 1))
	a := tensor.Randn(rows, in, 1, rng)
	b := tensor.Randn(in, out, 1, rng)
	sec := probe(func() { tensor.MatMul(a, b) })
	return 2 * float64(rows*in*out) / sec / 1e9
}

func probeMatVecGroupF32(rows, in, out int) float64 {
	rng := rand.New(rand.NewPCG(1, 1))
	wT, bias, x := randF32(out*in, rng), randF32(out, rng), randF32(rows*in, rng)
	dst := make([]float32, rows*out)
	group := make([]int, rows)
	for i := range group {
		group[i] = i
	}
	sec := probe(func() { tensor.MatVecGroupF32(dst, out, wT, bias, x, in, in, out, group) })
	return 2 * float64(rows*in*out) / sec / 1e9
}

func probeGemmF32(rows, in, out int) float64 {
	rng := rand.New(rand.NewPCG(1, 1))
	wT, bias, x := randF32(out*in, rng), randF32(out, rng), randF32(rows*in, rng)
	dst := make([]float32, rows*out)
	sec := probe(func() { tensor.GemmF32(dst, wT, bias, x, rows, in, out) })
	return 2 * float64(rows*in*out) / sec / 1e9
}

func probeGemmAsm() float64 {
	if tensor.GemmF32Asm() {
		return 1
	}
	return 0
}

// probeStep times the decoder alone: slots streams decoded to positions
// tokens each, k rows per slot per pass (1 = Step, more = StepK), and
// returns nanoseconds per token.
func probeStep(m *cptgpt.Model, slots, positions, k int) float64 {
	dec := m.NewBatchDecoder(slots, cptgpt.F32)
	dim := m.Tok.Dim()
	var row []float64
	row = m.Tok.AppendToken(row, 0, 0.1, 0)
	tokens := make([]float64, 0, slots*k*dim)
	for i := 0; i < slots*k; i++ {
		tokens = append(tokens, row...)
	}
	ids, ks := make([]int, slots), make([]int, slots)
	for i := range ids {
		ids[i], ks[i] = i, k
	}
	sec := probe(func() {
		dec.Reset()
		for pos := 0; pos+k <= positions; pos += k {
			if k == 1 {
				dec.Step(ids, tokens)
			} else {
				dec.StepK(ids, ks, k, tokens)
			}
		}
	})
	return sec * 1e9 / float64(slots*(positions/k)*k)
}
