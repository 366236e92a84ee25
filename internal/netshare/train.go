package netshare

import (
	"fmt"
	"math"

	"cptgpt/internal/events"
	"cptgpt/internal/nn"
	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// TrainOpts tunes a GAN training run.
type TrainOpts struct {
	// Epochs overrides Config.Epochs when > 0.
	Epochs int
	// LR overrides Config.LR when > 0.
	LR float64
	// OnEpoch observes per-epoch mean discriminator and generator losses.
	OnEpoch func(epoch int, dLoss, gLoss float64)
	// Probe, when non-nil, scores the current weights (lower is better)
	// every ProbeEvery epochs (default 1), and training restores the
	// best-scoring generator checkpoint at the end: nn.Loop's checkpoint
	// ranking (§5.5), which a GAN needs because its losses do not track
	// sample quality.
	Probe      func() float64
	ProbeEvery int
}

// TrainResult reports a GAN training run: the loop's steps, epochs, kept
// checkpoint and wall-clock time, plus the per-epoch mean losses.
type TrainResult struct {
	nn.LoopResult
	Streams int
	DLoss   []float64
	GLoss   []float64
}

// encodeStream flattens one real stream into the discriminator's input
// layout: Steps·BatchGen samples of [event one-hot | normalized ia | stop],
// padding past the end with stop=1, followed by the stream's (minLog,
// logWidth) normalization range. Per-stream min/max normalization over
// log1p(interarrival) matches DoppelGANger's scheme (the paper's L5).
func (m *Model) encodeStream(s *trace.Stream) ([]float64, error) {
	cfg := m.Cfg
	vocab := events.Vocabulary(cfg.Generation)
	v := len(vocab)
	fps := cfg.fieldsPerSample()
	total := cfg.seqDim()
	l := len(s.Events)
	if l < 2 {
		return nil, fmt.Errorf("netshare: stream %s too short (%d)", s.UEID, l)
	}
	if l > cfg.MaxLen() {
		return nil, fmt.Errorf("netshare: stream %s length %d exceeds MaxLen %d", s.UEID, l, cfg.MaxLen())
	}

	ia := s.Interarrivals()
	minLog, maxLog := math.Inf(1), math.Inf(-1)
	for _, x := range ia[1:] {
		lg := math.Log1p(math.Max(x, 0))
		if lg < minLog {
			minLog = lg
		}
		if lg > maxLog {
			maxLog = lg
		}
	}
	width := maxLog - minLog
	if width < 1e-6 {
		width = 1e-6
	}

	out := make([]float64, total)
	for i := 0; i < cfg.MaxLen(); i++ {
		base := i * fps
		if i < l {
			idx := events.VocabIndex(cfg.Generation, s.Events[i].Type)
			if idx < 0 {
				return nil, fmt.Errorf("netshare: stream %s event %d not in %s vocabulary", s.UEID, i, cfg.Generation)
			}
			out[base+idx] = 1
			if i > 0 {
				out[base+v] = (math.Log1p(math.Max(ia[i], 0)) - minLog) / width
			}
			if i == l-1 {
				out[base+v+1] = 1
			}
		} else {
			out[base+v+1] = 1 // padding keeps the stop flag raised
		}
	}
	out[total-3] = float64(l) / float64(cfg.MaxLen()) // length fraction
	out[total-2] = minLog
	out[total-1] = math.Log(width)
	return out, nil
}

// Train runs adversarial training on the dataset: alternating
// discriminator and generator steps with the non-saturating GAN loss.
func Train(m *Model, d *trace.Dataset, opts TrainOpts) (*TrainResult, error) {
	if d.Generation != m.Cfg.Generation {
		return nil, fmt.Errorf("netshare: dataset generation %s does not match model %s", d.Generation, m.Cfg.Generation)
	}
	epochs := m.Cfg.Epochs
	if opts.Epochs > 0 {
		epochs = opts.Epochs
	}
	lr := m.Cfg.LR
	if opts.LR > 0 {
		lr = opts.LR
	}

	var real [][]float64
	for i := range d.Streams {
		s := &d.Streams[i]
		if len(s.Events) < 2 || len(s.Events) > m.Cfg.MaxLen() {
			continue
		}
		enc, err := m.encodeStream(s)
		if err != nil {
			return nil, err
		}
		real = append(real, enc)
	}
	if len(real) == 0 {
		return nil, fmt.Errorf("netshare: no eligible training streams (need length in [2, %d])", m.Cfg.MaxLen())
	}

	dlr := m.Cfg.DLR
	if dlr <= 0 {
		dlr = lr / 4
	}
	gOpt := nn.NewAdam(m.GenParams(), lr)
	dOpt := nn.NewAdam(m.DiscParams(), dlr)
	rng := stats.NewRand(m.Cfg.Seed ^ 0xBEEF)
	res := &TrainResult{Streams: len(real)}

	b := min(m.Cfg.BatchSize, len(real))
	itersPerEpoch := (len(real) + b - 1) / b
	seqDim := m.Cfg.seqDim()
	realTarget := 1.0
	if m.Cfg.LabelSmooth > 0 {
		realTarget = m.Cfg.LabelSmooth
	}
	ones := make([]float64, b)
	smooth := make([]float64, b)
	zeros := make([]float64, b)
	for i := range ones {
		ones[i] = 1
		smooth[i] = realTarget
	}

	zeroAll := func() {
		gOpt.ZeroGrads()
		dOpt.ZeroGrads()
	}
	var dSum, gSum, noiseStd float64
	jitter := func(a *tensor.Arena, x *tensor.Tensor) *tensor.Tensor {
		if noiseStd <= 0 {
			return x
		}
		n := a.New(x.Rows, x.Cols)
		for i := range n.Data {
			n.Data[i] = noiseStd * rng.NormFloat64()
		}
		return tensor.Add(x, n)
	}

	// Both GAN steps rebuild the same tape shape every iteration from inputs
	// built in the step's arena (the real batch, the noise, the jitter), so
	// the loop's rewind after each iteration recycles both tapes; the real
	// encodings above are heap-allocated and unaffected.
	loop := nn.Loop{
		Epochs:   epochs,
		Rng:      rng,
		Examples: len(real),
		Steps:    itersPerEpoch,
		BeginEpoch: func(epoch int) {
			// Instance noise decays linearly across epochs.
			noiseStd = 0
			if m.Cfg.InstanceNoise > 0 && epochs > 1 {
				noiseStd = m.Cfg.InstanceNoise * (1 - float64(epoch)/float64(epochs))
			}
			dSum, gSum = 0, 0
		},
		Step: func(it int, order []int, arena *tensor.Arena) error {
			// Real minibatch.
			rb := arena.New(b, seqDim)
			for r := 0; r < b; r++ {
				copy(rb.Data[r*seqDim:(r+1)*seqDim], real[order[(it*b+r)%len(real)]])
			}

			// ---- Discriminator step ----
			fake := m.generateSoft(m.sampleNoise(arena, b, rng))
			dReal := m.Disc.Forward(m.discInput(jitter(arena, rb)))
			dFake := m.Disc.Forward(m.discInput(jitter(arena, fake)))
			lossD := tensor.AddScalars([]float64{0.5, 0.5},
				tensor.BCEWithLogits(dReal, smooth),
				tensor.BCEWithLogits(dFake, zeros))
			zeroAll()
			lossD.Backward()
			dOpt.Step()

			// ---- Generator step ----
			fake = m.generateSoft(m.sampleNoise(arena, b, rng))
			lossG := tensor.BCEWithLogits(m.Disc.Forward(m.discInput(jitter(arena, fake))), ones)
			zeroAll()
			lossG.Backward()
			gOpt.Step()
			zeroAll()

			dSum += lossD.Data[0]
			gSum += lossG.Data[0]
			return nil
		},
		OnEpoch: func(epoch int) {
			res.DLoss = append(res.DLoss, dSum/float64(itersPerEpoch))
			res.GLoss = append(res.GLoss, gSum/float64(itersPerEpoch))
			if opts.OnEpoch != nil {
				opts.OnEpoch(epoch, res.DLoss[epoch], res.GLoss[epoch])
			}
		},
		// The probe generates from heap noise, so its tapes stay off the
		// step arena. Only the generator's checkpoint is ranked and
		// restored.
		Probe:      opts.Probe,
		ProbeEvery: opts.ProbeEvery,
		Keep:       m.GenParams(),
	}
	var err error
	if res.LoopResult, err = loop.Run(); err != nil {
		return nil, err
	}
	return res, nil
}

// sampleNoise draws, in arena a (the heap when a is nil), the per-step LSTM
// inputs [z0 | z_t] plus the shared stream-level noise z0 that also drives
// the range head.
func (m *Model) sampleNoise(a *tensor.Arena, b int, rng interface{ NormFloat64() float64 }) ([]*tensor.Tensor, *tensor.Tensor) {
	nd := m.Cfg.NoiseDim
	z0 := a.New(b, nd)
	for j := range z0.Data {
		z0.Data[j] = rng.NormFloat64()
	}
	noise := make([]*tensor.Tensor, m.Cfg.Steps)
	for i := range noise {
		z := a.New(b, 2*nd)
		for r := 0; r < b; r++ {
			copy(z.Data[r*2*nd:r*2*nd+nd], z0.Data[r*nd:(r+1)*nd])
			for j := nd; j < 2*nd; j++ {
				z.Data[r*2*nd+j] = rng.NormFloat64()
			}
		}
		noise[i] = z
	}
	return noise, z0
}

// Clone deep-copies the model, the warm-start primitive used by the
// transfer-learning experiments.
func (m *Model) Clone() (*Model, error) {
	c := newModel(m.Cfg, nil)
	if err := nn.CopyParams(c.GenParams(), m.GenParams()); err != nil {
		return nil, err
	}
	if err := nn.CopyParams(c.DiscParams(), m.DiscParams()); err != nil {
		return nil, err
	}
	return c, nil
}
