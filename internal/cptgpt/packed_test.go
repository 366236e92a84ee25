package cptgpt

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"cptgpt/internal/nn"
	"cptgpt/internal/stats"
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
	pb := PackStreams(nil, ins, tgs)
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

// snapshotParams deep-copies parameter values.
func snapshotParams(params []*tensor.Tensor) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

// trainPerStream is the reference trainer Train must match: Train's
// schedule (shuffle, cosine LR, a step per AccumStreams streams) with one
// heap-allocated tape per stream through Forward, Loss and Scale, whose
// gradients accumulate into the step. Dropout must be 0.
func trainPerStream(t *testing.T, d *trace.Dataset, cfg Config) ([][]float64, []float64) {
	t.Helper()
	m, err := NewModel(cfg, FitTokenizer(d))
	if err != nil {
		t.Fatal(err)
	}
	var ins []*tensor.Tensor
	var tgs []*Targets
	var totalTokens int
	for i := range d.Streams {
		if n := len(d.Streams[i].Events); n < 2 || n > cfg.MaxLen+1 {
			continue
		}
		in, tg, err := m.Tok.EncodeStream(&d.Streams[i])
		if err != nil {
			t.Fatal(err)
		}
		ins, tgs = append(ins, in), append(tgs, tg)
		totalTokens += in.Rows
	}
	meanTokens := float64(totalTokens) / float64(len(ins))
	opt := nn.NewAdam(m.Params(), cfg.LR)
	rng := stats.NewRand(cfg.Seed ^ 0xDEAD)
	order := make([]int, len(ins))
	for i := range order {
		order[i] = i
	}
	var losses []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		frac := float64(epoch) / float64(cfg.Epochs-1)
		opt.LR = cfg.LR * (0.1 + 0.9*0.5*(1+math.Cos(math.Pi*frac)))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		for k := 0; k < len(order); k += cfg.AccumStreams {
			opt.ZeroGrads()
			for _, idx := range order[k:min(k+cfg.AccumStreams, len(order))] {
				h, err := m.Forward(ins[idx], nil)
				if err != nil {
					t.Fatal(err)
				}
				loss := m.Loss(h, tgs[idx])
				lossSum += loss.Data[0]
				tensor.Scale(loss, float64(ins[idx].Rows)/meanTokens).Backward()
			}
			opt.Step()
		}
		losses = append(losses, lossSum/float64(len(order)))
	}
	return snapshotParams(m.Params()), losses
}

// TestTrainMatchesPerStream is the trainer's equivalence guarantee: one
// packed forward per optimizer step, its tape in the arena, reaches weights
// and epoch losses bit-identical to the per-stream heap reference, at
// AccumStreams 1, 3 (whose last step holds one stream) and 4 and at kernel
// parallelism 1 and 4 (Dropout is 0, so every reduction order is kept).
func TestTrainMatchesPerStream(t *testing.T) {
	d := testTrainingData(t, 31)
	eligible := 0
	for i := range d.Streams {
		if n := len(d.Streams[i].Events); n >= 2 && n <= smallConfig().MaxLen+1 {
			eligible++
		}
	}
	if eligible%3 != 1 {
		t.Fatalf("%d training streams leave AccumStreams 3 no one-stream step", eligible)
	}
	for _, accum := range []int{1, 3, 4} {
		cfg := smallConfig()
		cfg.Epochs = 2
		cfg.AccumStreams = accum
		refW, refLoss := trainPerStream(t, d, cfg)
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("accum=%d/par=%d", accum, par), func(t *testing.T) {
				defer tensor.SetParallelism(tensor.SetParallelism(par))
				w, loss := trainWeights(t, d, cfg, TrainOpts{})
				if len(loss) != len(refLoss) {
					t.Fatalf("epoch count %d != %d", len(loss), len(refLoss))
				}
				for e := range loss {
					if loss[e] != refLoss[e] {
						t.Fatalf("epoch %d loss %v != per-stream %v", e, loss[e], refLoss[e])
					}
				}
				for p := range w {
					for j := range w[p] {
						if w[p][j] != refW[p][j] {
							t.Fatalf("param %d[%d]: %v != per-stream %v", p, j, w[p][j], refW[p][j])
						}
					}
				}
			})
		}
	}
}

// TestTrainMicrobatchDropoutConverges covers the trainer's dropout path,
// whose packed mask draw is statistically (not bitwise) equivalent to the
// per-stream one: it must still train — losses decreasing over the run.
func TestTrainMicrobatchDropoutConverges(t *testing.T) {
	d := testTrainingData(t, 30)
	cfg := smallConfig()
	cfg.Epochs = 4
	cfg.Dropout = 0.1
	_, loss := trainWeights(t, d, cfg, TrainOpts{})
	if len(loss) == 0 {
		t.Fatal("no epochs ran")
	}
	if !(loss[len(loss)-1] < loss[0]) {
		t.Fatalf("dropout training did not improve: first %v last %v", loss[0], loss[len(loss)-1])
	}
}

// trainDigest is FNV-64a over the little-endian float64 bits of the trained
// parameters, then of the per-epoch losses.
func trainDigest(w [][]float64, loss []float64) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range w {
		for _, v := range p {
			put(v)
		}
	}
	for _, v := range loss {
		put(v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTrainPinned pins the trained weights and epoch losses of two epochs on
// 30 phones at several AccumStreams, with and without dropout, so a change
// to the trainer's step structure cannot move them unnoticed. The kernels'
// multiply-adds may be fused into FMAs on other architectures, so the pins
// are checked on amd64, where they were recorded.
func TestTrainPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	d := testTrainingData(t, 30)
	for _, c := range []struct {
		accum   int
		dropout float64
		want    string
	}{
		{1, 0, "5fb93f489b9e32cd"},
		{3, 0, "1e07cb088f445353"},
		{4, 0, "068340d1155e71cd"},
		{7, 0, "0ee4888ca5078911"},
		{1, 0.1, "fad56730b9943236"},
		{3, 0.1, "29c4759e6a30f517"},
		{4, 0.1, "827e55f8491413b3"},
	} {
		cfg := smallConfig()
		cfg.Epochs = 2
		cfg.AccumStreams = c.accum
		cfg.Dropout = c.dropout
		if got := trainDigest(trainWeights(t, d, cfg, TrainOpts{})); got != c.want {
			t.Errorf("AccumStreams=%d Dropout=%v: digest %s, want %s", c.accum, c.dropout, got, c.want)
		}
	}
}
