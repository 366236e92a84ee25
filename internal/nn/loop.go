package nn

import (
	"math"
	"math/rand/v2"
	"time"

	"cptgpt/internal/tensor"
)

// Loop is the one training loop, shared by CPT-GPT and NetShare so that
// the §5.5 time-to-quality comparison ranks both frameworks' checkpoints by
// the same rule. It owns the epochs, the shuffle, the tape arena, the
// callbacks and the best checkpoint; a trainer supplies its epoch hook, its
// step count and its step body.
type Loop struct {
	Epochs int
	// Rng shuffles the Examples indices after each BeginEpoch; it is the
	// trainer's own generator, which Step may draw from too.
	Rng      *rand.Rand
	Examples int
	// Steps is the number of optimizer steps per epoch.
	Steps int
	// BeginEpoch, when non-nil, starts each epoch (a learning-rate
	// schedule, a noise decay).
	BeginEpoch func(epoch int)
	// Step runs optimizer step k of the epoch over the shuffled order. It
	// builds its inputs in arena (arena.New), so its tape draws from arena,
	// which the loop resets when Step returns: nothing derived from those
	// inputs may outlive the step.
	Step func(k int, order []int, arena *tensor.Arena) error
	// OnEpoch, when non-nil, ends each epoch.
	OnEpoch func(epoch int)
	// Probe, when non-nil, scores the current weights (lower is better)
	// every ProbeEvery epochs (default 1). The loop copies Keep at the first
	// best score and writes that copy back at the end.
	Probe      func() float64
	ProbeEvery int
	Keep       []*tensor.Tensor
}

// LoopResult reports what a Loop did. BestEpoch is the 1-based epoch whose
// checkpoint was kept (0 without a Probe); BestScore is its probe score.
type LoopResult struct {
	Steps, Epochs, BestEpoch int
	BestScore                float64
	Duration                 time.Duration
}

// TimeToBest is the wall-clock share of the run spent up to the kept
// checkpoint (epoch cost is uniform), §5.5's time to a converged model;
// without a kept checkpoint it is the whole Duration.
func (r LoopResult) TimeToBest() time.Duration {
	if r.BestEpoch <= 0 || r.Epochs <= 0 {
		return r.Duration
	}
	return time.Duration(float64(r.Duration) * float64(r.BestEpoch) / float64(r.Epochs))
}

// Run trains. Every step gets the same bump arena, rewound after the step.
// OnEpoch and Probe get none: their tapes start from heap tensors, so what
// they compute outlives the rewind.
func (l Loop) Run() (LoopResult, error) {
	var res LoopResult
	start := time.Now()
	arena := tensor.NewArena()
	order := make([]int, l.Examples)
	for i := range order {
		order[i] = i
	}
	var best [][]float64
	bestScore := math.Inf(1)
	for epoch := 0; epoch < l.Epochs; epoch++ {
		if l.BeginEpoch != nil {
			l.BeginEpoch(epoch)
		}
		l.Rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for k := 0; k < l.Steps; k++ {
			if err := l.Step(k, order, arena); err != nil {
				return res, err
			}
			res.Steps++
			arena.Reset()
		}
		res.Epochs = epoch + 1
		if l.OnEpoch != nil {
			l.OnEpoch(epoch)
		}
		if l.Probe == nil || (epoch+1)%max(l.ProbeEvery, 1) != 0 {
			continue
		}
		if score := l.Probe(); score < bestScore {
			bestScore, res.BestEpoch, res.BestScore = score, epoch+1, score
			best = make([][]float64, len(l.Keep))
			for i, p := range l.Keep {
				best[i] = append([]float64(nil), p.Data...)
			}
		}
	}
	for i := range best {
		copy(l.Keep[i].Data, best[i])
	}
	res.Duration = time.Since(start)
	return res, nil
}
