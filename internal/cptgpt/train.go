package cptgpt

import (
	"fmt"
	"math"

	"cptgpt/internal/nn"
	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// TrainOpts tunes a training run without mutating the model config.
type TrainOpts struct {
	// Epochs overrides Config.Epochs when > 0 (used by fine-tuning).
	Epochs int
	// LR overrides Config.LR when > 0 (used by fine-tuning).
	LR float64
	// OnEpoch, when non-nil, observes each epoch's mean loss.
	OnEpoch func(epoch int, meanLoss float64)
	// Probe, when non-nil, scores the current weights (lower is better)
	// every ProbeEvery epochs (default 1), and training restores the
	// best-scoring checkpoint at the end: nn.Loop's checkpoint ranking,
	// the GAN baseline's too, for fair time-to-quality comparisons (§5.5).
	Probe      func() float64
	ProbeEvery int
}

// TrainResult reports what a training run did: the loop's steps, epochs,
// kept checkpoint and wall-clock time, plus the per-epoch losses.
type TrainResult struct {
	nn.LoopResult
	// Streams is the number of eligible training streams.
	Streams int
	// EpochLoss holds the mean training loss per epoch.
	EpochLoss []float64
}

// FinalLoss returns the last epoch's mean loss (NaN-free convenience).
func (r *TrainResult) FinalLoss() float64 {
	if len(r.EpochLoss) == 0 {
		return 0
	}
	return r.EpochLoss[len(r.EpochLoss)-1]
}

// Train fits the model on the dataset with next-token supervision. It also
// extracts the initial-event-type distribution that ships with the model
// (§4.5). Streams of length < 2 are excluded, and streams longer than
// MaxLen+1 are dropped, matching the paper's preprocessing.
func Train(m *Model, d *trace.Dataset, opts TrainOpts) (*TrainResult, error) {
	if d.Generation != m.Cfg.Generation {
		return nil, fmt.Errorf("cptgpt: dataset generation %s does not match model %s", d.Generation, m.Cfg.Generation)
	}
	// Training rewrites the weights, so any frozen float32 inference
	// snapshot is stale from here on; drop it now and again on exit so the
	// next decode re-freezes the trained parameters.
	m.InvalidateInfer()
	defer m.InvalidateInfer()
	epochs := m.Cfg.Epochs
	if opts.Epochs > 0 {
		epochs = opts.Epochs
	}
	lr := m.Cfg.LR
	if opts.LR > 0 {
		lr = opts.LR
	}

	// Encode eligible streams once.
	type sample struct {
		in *tensor.Tensor
		tg *Targets
	}
	var samples []sample
	var totalTokens int
	for i := range d.Streams {
		s := &d.Streams[i]
		if len(s.Events) < 2 || len(s.Events) > m.Cfg.MaxLen+1 {
			continue
		}
		in, tg, err := m.Tok.EncodeStream(s)
		if err != nil {
			return nil, err
		}
		samples = append(samples, sample{in: in, tg: tg})
		totalTokens += in.Rows
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("cptgpt: no eligible training streams (need length in [2, %d])", m.Cfg.MaxLen+1)
	}
	// Streams contribute mean-per-token losses; re-weight each stream by
	// its token count so every *token* carries equal gradient weight. A
	// per-stream mean would overweight short streams' stop-flag targets and
	// systematically miscalibrate the stop hazard (streams would generate
	// too short).
	meanTokens := float64(totalTokens) / float64(len(samples))
	m.InitialDist = d.InitialEventDist()

	accum := max(m.Cfg.AccumStreams, 1)
	opt := nn.NewAdam(m.Params(), lr)
	rng := stats.NewRand(m.Cfg.Seed ^ 0xDEAD)
	res := &TrainResult{Streams: len(samples)}
	var dropRng = rng
	if m.Cfg.Dropout <= 0 {
		dropRng = nil
	}
	ins := make([]*tensor.Tensor, 0, accum)
	tgs := make([]*Targets, 0, accum)
	var lossSum float64

	loop := nn.Loop{
		Epochs:   epochs,
		Rng:      rng,
		Examples: len(samples),
		Steps:    (len(samples) + accum - 1) / accum,
		BeginEpoch: func(epoch int) {
			// Cosine learning-rate decay to a 10% floor sharpens the late
			// epochs, which matters for near-zero semantic-violation rates.
			if epochs > 1 {
				frac := float64(epoch) / float64(epochs-1)
				opt.LR = lr * (0.1 + 0.9*0.5*(1+math.Cos(math.Pi*frac)))
			}
			lossSum = 0
		},
		// Each optimizer step is one packed forward over its (up to)
		// AccumStreams streams.
		Step: func(k int, order []int, arena *tensor.Arena) error {
			ins, tgs = ins[:0], tgs[:0]
			for _, idx := range order[k*accum : min((k+1)*accum, len(order))] {
				ins = append(ins, samples[idx].in)
				tgs = append(tgs, samples[idx].tg)
			}
			pb := PackStreams(arena, ins, tgs)
			h, err := m.ForwardPacked(pb, dropRng)
			if err != nil {
				return err
			}
			total, perStream := m.LossPacked(h, pb, meanTokens)
			for _, lv := range perStream {
				lossSum += lv
			}
			opt.ZeroGrads()
			total.Backward()
			opt.Step()
			return nil
		},
		OnEpoch: func(epoch int) {
			meanLoss := lossSum / float64(len(samples))
			res.EpochLoss = append(res.EpochLoss, meanLoss)
			// The epoch's optimizer steps rewrote the weights, so a float32
			// snapshot a previous epoch's callback froze is stale — drop it
			// before this epoch's callbacks can decode through it.
			m.InvalidateInfer()
			if opts.OnEpoch != nil {
				opts.OnEpoch(epoch, meanLoss)
			}
		},
		Probe:      opts.Probe,
		ProbeEvery: opts.ProbeEvery,
		Keep:       m.Params(),
	}
	var err error
	if res.LoopResult, err = loop.Run(); err != nil {
		return nil, err
	}
	return res, nil
}

// FineTune continues training an already-trained model on a new dataset,
// the transfer-learning path of Design 3. It uses a reduced learning rate
// and epoch budget relative to the base run (the paper's hourly adaptation:
// a fine-tuned hour converges in a fraction of a scratch run's time).
func FineTune(m *Model, d *trace.Dataset, opts TrainOpts) (*TrainResult, error) {
	if opts.LR <= 0 {
		opts.LR = m.Cfg.LR / 3
	}
	if opts.Epochs <= 0 {
		opts.Epochs = max(1, m.Cfg.Epochs/3)
	}
	return Train(m, d, opts)
}

// Clone deep-copies the model (weights and config), the warm-start
// primitive for building an hourly ensemble out of one base model.
func (m *Model) Clone() (*Model, error) {
	c, err := NewModel(m.Cfg, m.Tok)
	if err != nil {
		return nil, err
	}
	if err := nn.CopyParams(c.Params(), m.Params()); err != nil {
		return nil, err
	}
	c.InitialDist = append([]float64(nil), m.InitialDist...)
	return c, nil
}
