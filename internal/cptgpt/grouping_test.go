package cptgpt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	_ "unsafe" // go:linkname

	"cptgpt/internal/events"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// setGemmF32Zmm is tensor's unexported test seam: it makes the assembly GEMM
// use the AVX-512 tiles (where the CPU has them) or the AVX2 ones, and
// returns the previous choice. It is reached by linkname so that
// SetGemmF32Asm stays the one exported switch.
//
//go:linkname setGemmF32Zmm cptgpt/internal/tensor.setGemmF32Zmm
func setGemmF32Zmm(on bool) (prev bool)

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

// TestPlainF32KernelsPinned pins Generate's exact output to digests recorded
// at earlier commits, so work that claims to move no bits is held to it.
//
// Plain F32 under each GEMM kernel — portable: the population of PRs 4–11
// (scalar group matvecs, GELU fused into the up-projection), which routing
// plain decode through GemmF32 and reading packed weight panels did not
// change; AVX2: recorded when the outer-product GEMM over packed panels (one
// FMA chain per output) and then the three-pass attention kernel (float32
// polynomial exp) replaced the dot-product GEMM and the scalar online
// softmax. Its digest was 5703afb8c7d76696f3e118a3 before both,
// a44fbe92d1ece0f4560e342c after the GEMM alone (1525 events throughout).
//
// Speculative rows (draft > 0) — recorded at PR 15, when speculative decoding
// was a scheduler of its own, before plain and speculative decoding became
// one loop: the merged loop must draw every stream's randomness in the order
// the separate one did (draft draws, verify draws, free-token draw). The
// AVX2 row is re-recorded with the plain one (1543b2f3f6e1ab57862f8100
// before, bd9ae5e57e0f9143bd3a574c after the GEMM alone; 1495 events
// throughout).
//
// The AVX-512 GEMM tiles compute the AVX2 tiles' bits, so on a machine with
// both every "avx2" row runs under each and holds the one digest.
//
// The arithmetic also depends on the float64 math library (softmax,
// sampling), so the pins are checked only on the platform class they were
// recorded on: amd64 with FMA.
func TestPlainF32KernelsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" || len(gemmKernels()) < 2 {
		t.Skip("digests recorded on amd64 with AVX2+FMA")
	}
	defer tensor.SetGemmF32Asm(tensor.GemmF32Asm())
	defer setGemmF32Zmm(setGemmF32Zmm(true))
	zmmSettings := []bool{setGemmF32Zmm(true)} // true exactly where the CPU has the AVX-512 tiles
	if zmmSettings[0] {
		zmmSettings = append(zmmSettings, false)
	}
	trained, err := trainedTestModel()
	if err != nil {
		t.Fatal(err)
	}
	// Table 8 ablation (deterministic interarrival head), random weights.
	cfg := smallConfig()
	cfg.DistHead = false
	noDist, err := NewModel(cfg, FitTokenizer(testTrainingData(t, 60)))
	if err != nil {
		t.Fatal(err)
	}
	// The draft is fitted here, on a plain F64 population, rather than left
	// to Model.SelfDraft: that one decodes in F32 under whichever GEMM kernel
	// is selected when a test first asks for it, and is then cached on the
	// shared model — its bits would depend on test order.
	drafts := map[*Model]draftModel{}
	for _, m := range []*Model{trained, noDist} {
		ds, err := m.Generate(GenOpts{NumStreams: 160, Device: events.Phone, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		drafts[m] = newNGramDraft(ds, m.Tok)
	}
	for _, c := range []struct {
		name  string
		m     *Model
		prec  Precision
		asm   bool
		draft int // DraftTokens; 0 decodes plainly
		want  string
	}{
		{"plain F32 portable", trained, F32, false, 0, "b10b7490257275e0bcd0d632"},
		{"plain F32 avx2", trained, F32, true, 0, "0834b336f31be2ebe691a1ff"},
		{"speculative F64 k=2", trained, F64, false, 2, "0ea597e9c17565ed3d8b5c32"},
		{"speculative F64 k=4", trained, F64, false, 4, "2a4746032f9b33e905f1e428"},
		{"speculative F32 k=4 portable", trained, F32, false, 4, "976fe938f30574c447d34258"},
		{"speculative F32 k=4 avx2", trained, F32, true, 4, "3ac9cb5e4c25fa635939dbd3"},
		{"speculative F64 k=4 no dist head", noDist, F64, false, 4, "c434dcf1cbe926b7d6c46ffc"},
	} {
		tensor.SetGemmF32Asm(c.asm)
		zmms := []bool{false}
		if c.asm {
			zmms = zmmSettings
		}
		for _, zmm := range zmms {
			setGemmF32Zmm(zmm)
			gen, err := c.m.Generate(GenOpts{NumStreams: 96, Device: events.Phone, Seed: 2024, StartWindow: 30,
				Precision: c.prec, Parallelism: 2, BatchSize: 8, Speculative: c.draft > 0, DraftTokens: c.draft, draft: drafts[c.m]})
			if err != nil {
				t.Fatal(err)
			}
			events := 0
			for i := range gen.Streams {
				events += len(gen.Streams[i].Events)
			}
			if got := streamsDigest(gen.Streams); got != c.want {
				t.Errorf("%s (AVX-512 tiles %v): output (%d events) has digest %s, want %s (recorded before the change)",
					c.name, zmm, events, got, c.want)
			}
		}
	}
}
