package cptgpt

import (
	"fmt"
	"math"
	"time"

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
	// Probe, when non-nil, is called every ProbeEvery epochs and must
	// return a fidelity score (lower is better) for the current weights;
	// training restores the best-scoring checkpoint at the end. This is
	// the same checkpoint-ranking methodology applied to the GAN baseline,
	// used where fair time-to-quality comparisons are needed (§5.5).
	Probe func() float64
	// ProbeEvery defaults to 1.
	ProbeEvery int
	// Parallelism, when > 0, overrides the process-global tensor-kernel
	// parallelism (tensor.SetParallelism) for the duration of the run. The
	// sharded kernels are bit-identical to the serial path, so the trained
	// weights do not depend on this setting.
	Parallelism int
	// MicrobatchStreams overrides Config.MicrobatchStreams when > 0: the
	// number of streams packed into each forward pass. With Dropout 0 the
	// trained weights are bit-identical at every setting (see
	// Config.MicrobatchStreams); set 1 to force the serial per-stream path.
	MicrobatchStreams int
	// noArena is a test seam: it allocates the tape from the heap instead of
	// the per-step tensor arena, giving TestTrainMicrobatchEquivalence a
	// reference the arena must match bit for bit.
	noArena bool
}

// TrainResult reports what a training run did.
type TrainResult struct {
	// Streams is the number of eligible training streams.
	Streams int
	// Steps is the number of optimizer steps taken.
	Steps int
	// Epochs is the number of epochs completed.
	Epochs int
	// EpochLoss holds the mean training loss per epoch.
	EpochLoss []float64
	// Duration is the wall-clock training time.
	Duration time.Duration
	// BestEpoch is the 1-based epoch whose checkpoint was kept (0 when no
	// Probe was supplied); BestScore is its probe score.
	BestEpoch int
	BestScore float64
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
	// next F32 decode re-freezes the trained parameters.
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
	if opts.Parallelism > 0 {
		prev := tensor.SetParallelism(opts.Parallelism)
		defer tensor.SetParallelism(prev)
	}
	micro := opts.MicrobatchStreams
	if micro <= 0 {
		micro = m.Cfg.MicrobatchStreams
	}
	if micro < 1 {
		micro = 1
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

	accum := m.Cfg.AccumStreams
	if accum < 1 {
		accum = 1
	}
	opt := nn.NewAdam(m.Params(), lr)
	rng := stats.NewRand(m.Cfg.Seed ^ 0xDEAD)
	res := &TrainResult{Streams: len(samples)}
	start := time.Now()

	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	probeEvery := opts.ProbeEvery
	if probeEvery <= 0 {
		probeEvery = 1
	}
	var bestSnap [][]float64
	bestScore := math.Inf(1)

	// The autograd tape has the same shape every step, so its buffers come
	// from a bump arena that is rewound after each chunk's gradients have
	// been folded into the (heap-allocated) parameter grads. Callbacks run
	// with the arena detached (tensor.ArenaDetached): anything they
	// allocate must outlive Reset. The install is ownership-gated so two
	// arena-using trainers cannot interleave installs and Resets (the
	// loser runs off the heap); other concurrent tape work while an arena
	// is held remains unsupported — see tensor.InstallArena.
	var arena *tensor.Arena
	if !opts.noArena {
		arena = tensor.NewArena()
		if tensor.InstallArena(arena) {
			defer tensor.UninstallArena(arena)
		} else {
			arena = nil
		}
	}

	var dropRng = rng
	if m.Cfg.Dropout <= 0 {
		dropRng = nil
	}
	ins := make([]*tensor.Tensor, 0, micro)
	tgs := make([]*Targets, 0, micro)

	for epoch := 0; epoch < epochs; epoch++ {
		// Cosine learning-rate decay to a 10% floor sharpens the late
		// epochs, which matters for near-zero semantic-violation rates.
		if epochs > 1 {
			frac := float64(epoch) / float64(epochs-1)
			opt.LR = lr * (0.1 + 0.9*0.5*(1+math.Cos(math.Pi*frac)))
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var lossSum float64
		var sinceStep int
		opt.ZeroGrads()
		for k := 0; k < len(order); {
			// Pack up to `micro` streams, never crossing an optimizer-step
			// boundary, so step boundaries land on the same streams at every
			// microbatch setting (an equivalence requirement).
			chunk := micro
			if rem := accum - sinceStep; chunk > rem {
				chunk = rem
			}
			if rem := len(order) - k; chunk > rem {
				chunk = rem
			}
			if chunk == 1 {
				// Serial per-stream path (also the MicrobatchStreams=1 mode).
				sm := samples[order[k]]
				h, err := m.Forward(sm.in, dropRng)
				if err != nil {
					return nil, err
				}
				loss := m.Loss(h, sm.tg)
				lossSum += loss.Data[0]
				weighted := tensor.Scale(loss, float64(sm.in.Rows)/meanTokens)
				weighted.Backward()
			} else {
				ins, tgs = ins[:0], tgs[:0]
				for _, idx := range order[k : k+chunk] {
					ins = append(ins, samples[idx].in)
					tgs = append(tgs, samples[idx].tg)
				}
				pb := PackStreams(ins, tgs)
				h, err := m.ForwardPacked(pb, dropRng)
				if err != nil {
					return nil, err
				}
				total, perStream := m.LossPacked(h, pb, meanTokens)
				for _, lv := range perStream {
					lossSum += lv
				}
				total.Backward()
			}
			k += chunk
			sinceStep += chunk
			if sinceStep >= accum || k == len(order) {
				opt.Step()
				opt.ZeroGrads()
				res.Steps++
				sinceStep = 0
			}
			// The chunk's tape is dead (its gradients live in the heap
			// parameter grads), so the arena can be rewound even within an
			// accumulation window.
			if arena != nil {
				arena.Reset()
			}
		}
		meanLoss := lossSum / float64(len(order))
		res.EpochLoss = append(res.EpochLoss, meanLoss)
		res.Epochs = epoch + 1
		// The epoch's optimizer steps rewrote the weights, so a float32
		// snapshot a previous epoch's callback froze is stale — drop it
		// before this epoch's callbacks can decode through it.
		if opts.OnEpoch != nil || opts.Probe != nil {
			m.InvalidateInfer()
		}
		if opts.OnEpoch != nil {
			tensor.ArenaDetached(func() { opts.OnEpoch(epoch, meanLoss) })
		}
		if opts.Probe != nil && (epoch+1)%probeEvery == 0 {
			var score float64
			tensor.ArenaDetached(func() { score = opts.Probe() })
			if score < bestScore {
				bestScore = score
				res.BestEpoch = epoch + 1
				bestSnap = snapshotParams(m.Params())
			}
		}
	}
	if bestSnap != nil {
		restoreParams(m.Params(), bestSnap)
		res.BestScore = bestScore
	}
	res.Duration = time.Since(start)
	return res, nil
}

// snapshotParams deep-copies parameter values.
func snapshotParams(params []*tensor.Tensor) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

// restoreParams writes snapshot values back into params.
func restoreParams(params []*tensor.Tensor, snap [][]float64) {
	for i, p := range params {
		copy(p.Data, snap[i])
	}
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
