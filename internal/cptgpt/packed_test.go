package cptgpt

import (
	"fmt"
	"testing"

	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// encodeFirstN encodes the first n eligible streams of d.
func encodeFirstN(t *testing.T, tk Tokenizer, d *trace.Dataset, maxLen, n int) (ins []*tensor.Tensor, tgs []*Targets) {
	t.Helper()
	for i := range d.Streams {
		s := &d.Streams[i]
		if len(s.Events) < 2 || len(s.Events) > maxLen+1 {
			continue
		}
		in, tg, err := tk.EncodeStream(s)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
		tgs = append(tgs, tg)
		if len(ins) == n {
			return ins, tgs
		}
	}
	if len(ins) < 2 {
		t.Fatalf("only %d eligible streams", len(ins))
	}
	return ins, tgs
}

// TestForwardPackedMatchesForward pins the packed-minibatch invariant at the
// forward level: every head output row of a packed batch is bit-identical to
// running the serial Forward on that stream alone.
func TestForwardPackedMatchesForward(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	cfg := smallConfig()
	m, err := NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	ins, tgs := encodeFirstN(t, tk, d, cfg.MaxLen, 5)
	pb := PackStreams(ins, tgs)
	hp, err := m.ForwardPacked(pb, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, packed *tensor.Tensor, lo, hi int, serial *tensor.Tensor) {
		t.Helper()
		for r := lo; r < hi; r++ {
			for c := 0; c < packed.Cols; c++ {
				if got, want := packed.At(r, c), serial.At(r-lo, c); got != want {
					t.Fatalf("%s row %d col %d: packed %v != serial %v", name, r, c, got, want)
				}
			}
		}
	}
	for s := 0; s < pb.Streams(); s++ {
		hs, err := m.Forward(ins[s], nil)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := pb.Bounds[s], pb.Bounds[s+1]
		check("EventLogits", hp.EventLogits, lo, hi, hs.EventLogits)
		check("IAMean", hp.IAMean, lo, hi, hs.IAMean)
		check("IALogStd", hp.IALogStd, lo, hi, hs.IALogStd)
		check("StopLogits", hp.StopLogits, lo, hi, hs.StopLogits)
	}
}

// trainWeights trains a fresh model with the given options and returns its
// final parameter values plus the per-epoch losses.
func trainWeights(t *testing.T, d *trace.Dataset, cfg Config, opts TrainOpts) ([][]float64, []float64) {
	t.Helper()
	tk := FitTokenizer(d)
	m, err := NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(m, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return snapshotParams(m.Params()), res.EpochLoss
}

// TestTrainMicrobatchEquivalence is the trainer-level equivalence guarantee:
// packed-minibatch training reaches bit-identical weights and loss
// trajectories to the serial per-stream path, across microbatch sizes and
// parallelism degrees (Dropout is 0, so every reduction order is preserved;
// the arena and the blocked MatMul kernels are exercised on the packed runs
// and must not perturb a single bit either).
func TestTrainMicrobatchEquivalence(t *testing.T) {
	d := testTrainingData(t, 30)
	cfg := smallConfig()
	cfg.Epochs = 2

	refW, refLoss := trainWeights(t, d, cfg, TrainOpts{MicrobatchStreams: 1, Parallelism: 1, noArena: true})

	for _, micro := range []int{1, 2, 4} {
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("micro=%d/par=%d", micro, par)
			t.Run(name, func(t *testing.T) {
				w, loss := trainWeights(t, d, cfg, TrainOpts{MicrobatchStreams: micro, Parallelism: par})
				if len(loss) != len(refLoss) {
					t.Fatalf("epoch count %d != %d", len(loss), len(refLoss))
				}
				for e := range loss {
					if loss[e] != refLoss[e] {
						t.Fatalf("epoch %d loss %v != serial %v", e, loss[e], refLoss[e])
					}
				}
				for p := range w {
					for j := range w[p] {
						if w[p][j] != refW[p][j] {
							t.Fatalf("param %d[%d]: %v != serial %v", p, j, w[p][j], refW[p][j])
						}
					}
				}
			})
		}
	}
}

// TestTrainMicrobatchDropoutConverges covers the dropout path of the packed
// trainer, which is statistically (not bitwise) equivalent to serial: it
// must still train — losses finite and decreasing over the run.
func TestTrainMicrobatchDropoutConverges(t *testing.T) {
	d := testTrainingData(t, 30)
	cfg := smallConfig()
	cfg.Epochs = 4
	cfg.Dropout = 0.1
	_, loss := trainWeights(t, d, cfg, TrainOpts{MicrobatchStreams: 4})
	if len(loss) == 0 {
		t.Fatal("no epochs ran")
	}
	if !(loss[len(loss)-1] < loss[0]) {
		t.Fatalf("dropout training did not improve: first %v last %v", loss[0], loss[len(loss)-1])
	}
}
