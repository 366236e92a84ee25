package cptgpt

import (
	"sync"
	"testing"

	"cptgpt/internal/tensor"
)

// stepKTestEncs returns a few encodable token matrices from the tiny
// training dataset.
func stepKTestEncs(t *testing.T, m *Model, minRows, want int) [][]float64 {
	t.Helper()
	d := testTrainingData(t, 60)
	var encs [][]float64
	for i := range d.Streams {
		if len(d.Streams[i].Events) >= minRows+1 && len(d.Streams[i].Events) <= m.Cfg.MaxLen {
			enc, _, err := m.Tok.EncodeStream(&d.Streams[i])
			if err != nil {
				t.Fatal(err)
			}
			encs = append(encs, enc.Data[:enc.Rows*m.Tok.Dim()])
			if len(encs) == want {
				break
			}
		}
	}
	if len(encs) < want {
		t.Skip("not enough suitable streams in tiny dataset")
	}
	return encs
}

// TestStepKMatchesStep is the multi-token verify kernel's core contract:
// consuming a token chain through StepK yields the same per-position head
// outputs as stepping the chain one token at a time — bit-identical under
// either GEMM kernel (Step and StepK run one row body). This is also the batched-prefill guarantee: prefilling a
// prompt is one StepK call.
func TestStepKMatchesStep(t *testing.T) {
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	dim := tk.Dim()
	encs := stepKTestEncs(t, m, 6, 3)

	defer tensor.SetGemmF32Asm(tensor.GemmF32Asm())
	for _, asm := range gemmKernels() {
		tensor.SetGemmF32Asm(asm)
		// Reference: one-token stepping through a separate decoder.
		ref := m.NewBatchDecoder(len(encs), F32)
		wants := make([][]StepOut, len(encs))
		tok := make([]float64, len(encs)*dim)
		for step := 0; ; step++ {
			var slots []int
			for i, enc := range encs {
				if step < len(enc)/dim {
					slots = append(slots, i)
					copy(tok[i*dim:(i+1)*dim], enc[step*dim:(step+1)*dim])
				}
			}
			if len(slots) == 0 {
				break
			}
			outs := ref.Step(slots, tok)
			for j, slot := range slots {
				o := outs[j]
				o.EventLogits = append([]float64(nil), o.EventLogits...)
				wants[slot] = append(wants[slot], o)
			}
		}

		// Multi-token: chains of varying width per pass (1, 2, 3, ... rows).
		const kMax = 3
		kd := m.NewBatchDecoder(len(encs), F32)
		toksK := make([]float64, len(encs)*kMax*dim)
		pos := make([]int, len(encs))
		for round := 0; ; round++ {
			var slots []int
			var ks []int
			for i, enc := range encs {
				rows := len(enc) / dim
				if pos[i] >= rows {
					continue
				}
				k := 1 + (round+i)%kMax
				if k > rows-pos[i] {
					k = rows - pos[i]
				}
				for r := 0; r < k; r++ {
					copy(toksK[(i*kMax+r)*dim:(i*kMax+r+1)*dim], enc[(pos[i]+r)*dim:(pos[i]+r+1)*dim])
				}
				slots = append(slots, i)
				ks = append(ks, k)
			}
			if len(slots) == 0 {
				break
			}
			outs := kd.StepK(slots, ks, kMax, toksK)
			for j, slot := range slots {
				for r := 0; r < ks[j]; r++ {
					if !sameStepOut(outs[j][r], wants[slot][pos[slot]+r]) {
						t.Fatalf("asm=%v slot %d pos %d: StepK head outputs differ from Step's", asm, slot, pos[slot]+r)
					}
				}
				pos[slot] += ks[j]
			}
		}
	}
}

// TestTruncateSlot pins the rewind contract speculative rejection relies on:
// consuming a chain, truncating back to an accepted prefix, and re-stepping
// a different continuation equals stepping the prefix + continuation in a
// fresh decoder.
func TestTruncateSlot(t *testing.T) {
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	dim := tk.Dim()
	encs := stepKTestEncs(t, m, 6, 2)
	chain, alt := encs[0], encs[1]

	const kMax = 4
	kd := m.NewBatchDecoder(1, F32)
	toks := make([]float64, kMax*dim)
	// Consume 4 rows of chain, then pretend rows 2..3 were rejected.
	copy(toks, chain[:4*dim])
	kd.StepK([]int{0}, []int{4}, kMax, toks)
	kd.TruncateSlot(0, 2)
	if kd.Pos(0) != 2 {
		t.Fatalf("pos after truncate = %d, want 2", kd.Pos(0))
	}
	// Continue with two rows of alt.
	copy(toks, alt[:2*dim])
	got := kd.StepK([]int{0}, []int{2}, kMax, toks)[0]

	// Reference: chain[0:2] + alt[0:2] in a fresh decoder.
	rd := m.NewBatchDecoder(1, F32)
	copy(toks, chain[:2*dim])
	rd.StepK([]int{0}, []int{2}, kMax, toks)
	copy(toks, alt[:2*dim])
	want := rd.StepK([]int{0}, []int{2}, kMax, toks)[0]
	for r := 0; r < 2; r++ {
		for x := range want[r].EventLogits {
			if got[r].EventLogits[x] != want[r].EventLogits[x] {
				t.Fatalf("row %d logit %d: %v != %v", r, x, got[r].EventLogits[x], want[r].EventLogits[x])
			}
		}
		if got[r].IAMean != want[r].IAMean || got[r].StopLogits != want[r].StopLogits {
			t.Fatalf("row %d heads differ", r)
		}
	}

	// Out-of-range truncations must panic.
	kd = m.NewBatchDecoder(1, F32)
	for _, bad := range []int{-1, 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("TruncateSlot(0, %d) did not panic", bad)
				}
			}()
			kd.TruncateSlot(0, bad)
		}()
	}

	// Stepping a slot past MaxLen must panic, and after ResetSlot the slot
	// must decode exactly like a fresh decoder.
	pd := m.NewBatchDecoder(1, F32)
	for i := 0; i < m.Cfg.MaxLen; i++ {
		pd.Step([]int{0}, chain[:dim])
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("step %d with MaxLen %d did not panic", m.Cfg.MaxLen+1, m.Cfg.MaxLen)
			}
		}()
		pd.Step([]int{0}, chain[:dim])
	}()
	pd.ResetSlot(0)
	fresh := m.NewBatchDecoder(1, F32)
	for r := 0; r < len(chain)/dim; r++ {
		tok := chain[r*dim : (r+1)*dim]
		if !sameStepOut(pd.Step([]int{0}, tok)[0], fresh.Step([]int{0}, tok)[0]) {
			t.Fatalf("reset slot row %d differs from a fresh decoder", r)
		}
	}
}

// TestBatchDecoderStatsRace reads Stats concurrently with stepping — the
// counters must be race-free (run under -race, as CI does).
func TestBatchDecoderStatsRace(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	dim := tk.Dim()
	dec := m.NewBatchDecoder(2, F32)
	toks := make([]float64, 2*dim)
	for i := 0; i < 2; i++ {
		m.Tok.writeToken(toks[i*dim:(i+1)*dim], 0, 0, 0)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				st := dec.Stats()
				if st.SlotSteps < 0 {
					panic("negative slot steps")
				}
			}
		}
	}()
	for i := 0; i < 50; i++ {
		dec.Step([]int{0, 1}, toks)
		dec.Reset()
	}
	close(done)
	wg.Wait()
	if st := dec.Stats(); st.Steps != 50 || st.SlotSteps != 100 {
		t.Fatalf("Stats = %+v, want 50 steps / 100 slot-steps", st)
	}
}
