package cptgpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// gemmKernels lists the float32 GEMM kernels this machine can run, as
// SetGemmF32Asm arguments: the portable one always, the AVX2 one if present.
func gemmKernels() []bool {
	prev := tensor.SetGemmF32Asm(true)
	asm := tensor.GemmF32Asm()
	tensor.SetGemmF32Asm(prev)
	if asm {
		return []bool{false, true}
	}
	return []bool{false}
}

// sameStepOut reports whether two head outputs are bit-identical (NaN log-std
// of a model without a distribution head compares equal).
func sameStepOut(a, b StepOut) bool {
	if len(a.EventLogits) != len(b.EventLogits) {
		return false
	}
	for i := range a.EventLogits {
		if a.EventLogits[i] != b.EventLogits[i] {
			return false
		}
	}
	sameStd := a.IALogStd == b.IALogStd || (math.IsNaN(a.IALogStd) && math.IsNaN(b.IALogStd))
	return a.IAMean == b.IAMean && sameStd && a.StopLogits == b.StopLogits
}

// TestStepGroupingInvariance is the determinism contract of the row-packed
// decoder as a property: whatever subset of slots a pass lists, in whatever
// order, at whatever per-slot positions, with whatever row counts, split
// over however many workers, every (slot, row) head output is bit-identical
// to decoding that slot's tokens alone, one Step at a time, in a decoder of
// its own. Checked for Step and StepK, both precisions, both GEMM kernels.
func TestStepGroupingInvariance(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	dim := tk.Dim()
	const slots, seqLen, kMax = 9, 28, 5
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	defer tensor.SetGemmF32Asm(tensor.GemmF32Asm())

	// One random token sequence per slot.
	rng := rand.New(rand.NewPCG(7, 7))
	seqs := make([][]float64, slots)
	for s := range seqs {
		seqs[s] = make([]float64, seqLen*dim)
		for p := 0; p < seqLen; p++ {
			tk.writeToken(seqs[s][p*dim:(p+1)*dim], rng.IntN(tk.V()), rng.Float64(), 0)
		}
	}

	type mode struct {
		prec Precision
		asm  bool
	}
	modes := []mode{{F64, false}}
	for _, asm := range gemmKernels() {
		modes = append(modes, mode{F32, asm})
	}
	for _, md := range modes {
		name := fmt.Sprintf("%s asm=%v", md.prec, md.asm)
		tensor.SetGemmF32Asm(md.asm)

		// Reference: each slot alone, one token per Step, one worker.
		tensor.SetParallelism(1)
		ref := make([][]StepOut, slots)
		for s := range ref {
			solo := m.NewBatchDecoder(1, md.prec)
			for p := 0; p < seqLen; p++ {
				o := solo.Step([]int{0}, seqs[s][p*dim:(p+1)*dim])[0]
				o.EventLogits = append([]float64(nil), o.EventLogits...)
				ref[s] = append(ref[s], o)
			}
		}

		dec := m.NewBatchDecoder(slots, md.prec)
		toks1 := make([]float64, slots*dim)
		toksK := make([]float64, slots*kMax*dim)
		pos := make([]int, slots)
		for round := 0; round < 120; round++ {
			// A random subset in random order, each slot at its own position;
			// now and then a slot is rewound so positions spread out.
			var list []int
			for _, s := range rng.Perm(slots) {
				if rng.IntN(8) == 0 && pos[s] > 0 {
					pos[s] = rng.IntN(pos[s])
					dec.TruncateSlot(s, pos[s])
				}
				if pos[s] < seqLen && rng.IntN(3) > 0 {
					list = append(list, s)
				}
			}
			if len(list) == 0 {
				continue
			}
			tensor.SetParallelism([]int{1, 2, 3, 7}[rng.IntN(4)])
			if rng.IntN(2) == 0 {
				for _, s := range list {
					copy(toks1[s*dim:(s+1)*dim], seqs[s][pos[s]*dim:(pos[s]+1)*dim])
				}
				outs := dec.Step(list, toks1)
				for i, s := range list {
					if !sameStepOut(outs[i], ref[s][pos[s]]) {
						t.Fatalf("%s round %d: Step slot %d pos %d differs from solo decode (list %v)", name, round, s, pos[s], list)
					}
					pos[s]++
				}
				continue
			}
			ks := make([]int, len(list))
			for i, s := range list {
				ks[i] = 1 + rng.IntN(min(kMax, seqLen-pos[s]))
				copy(toksK[s*kMax*dim:(s*kMax+ks[i])*dim], seqs[s][pos[s]*dim:(pos[s]+ks[i])*dim])
			}
			outs := dec.StepK(list, ks, kMax, toksK)
			for i, s := range list {
				for r := 0; r < ks[i]; r++ {
					if !sameStepOut(outs[i][r], ref[s][pos[s]+r]) {
						t.Fatalf("%s round %d: StepK slot %d pos %d (row %d of %d) differs from solo decode (list %v ks %v)",
							name, round, s, pos[s]+r, r, ks[i], list, ks)
					}
				}
				pos[s] += ks[i]
			}
		}
	}
}

// streamsDigest hashes a generated population: identities, event types and
// the exact bits of every timestamp.
func streamsDigest(streams []trace.Stream) string {
	h := sha256.New()
	var b [8]byte
	for i := range streams {
		s := &streams[i]
		fmt.Fprintf(h, "%s/%s/%d;", s.UEID, s.Device, len(s.Events))
		for _, e := range s.Events {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Time))
			h.Write(b[:])
			fmt.Fprintf(h, "%s;", e.Type)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestPlainF32KernelsPinned pins plain F32 Generate's exact output under
// each GEMM kernel to digests recorded at earlier commits, so kernel work
// that claims to move no bits is held to it. Portable: the population of
// PRs 4–11 (scalar group matvecs, GELU fused into the up-projection), which
// routing plain decode through GemmF32 did not change. AVX2: the population
// of PR 12 (one-row-at-a-time assembly kernel, scalar GELU), recorded before
// the two-row kernel and the vector GELU replaced them. The arithmetic also
// depends on the float64 math library (softmax, sampling), so the pins are
// checked only on the platform class they were recorded on: amd64 with FMA.
func TestPlainF32KernelsPinned(t *testing.T) {
	want := map[bool]string{false: "b10b7490257275e0bcd0d632", true: "5703afb8c7d76696f3e118a3"}
	if runtime.GOARCH != "amd64" || len(gemmKernels()) < 2 {
		t.Skip("digests recorded on amd64 with AVX2+FMA")
	}
	defer tensor.SetGemmF32Asm(tensor.GemmF32Asm())
	m, err := trainedTestModel()
	if err != nil {
		t.Fatal(err)
	}
	for _, asm := range gemmKernels() {
		tensor.SetGemmF32Asm(asm)
		gen, err := m.Generate(GenOpts{NumStreams: 96, Device: events.Phone, Seed: 2024, StartWindow: 30,
			Precision: F32, Parallelism: 2, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		events := 0
		for i := range gen.Streams {
			events += len(gen.Streams[i].Events)
		}
		if got := streamsDigest(gen.Streams); got != want[asm] {
			t.Errorf("plain F32 output with asm=%v (%d events) has digest %s, want %s (recorded before the kernel changed)", asm, events, got, want[asm])
		}
	}
}
