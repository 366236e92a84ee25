// Package netshare implements the GAN/LSTM baseline the paper compares
// against, adapted to control-plane traffic exactly as §4.2.1 describes:
//
//   - the metadata (UE-ID) generator is discarded — UE IDs come from a
//     plain string generator;
//   - the LSTM time-series generator emits samples of three fields: event
//     type, interarrival time and a stop flag;
//   - batch generation produces S samples per LSTM step (the paper's L4:
//     intra-batch samples do not condition on one another);
//   - interarrival times are normalized per stream by that stream's own
//     min/max (DoppelGANger's mode-collapse mitigation, L5), so the
//     generator additionally produces each stream's (min, width) range pair
//     from the noise vector;
//   - training is adversarial: an MLP discriminator scores flattened
//     sequences, and generator/discriminator alternate non-saturating GAN
//     steps.
//
// The architecture is deliberately faithful to the baseline including its
// weaknesses; the fidelity gaps the paper reports (L1–L5) are emergent
// properties of this design, not injected behaviours.
package netshare

import (
	"fmt"
	"math"
	"math/rand/v2"

	"cptgpt/internal/events"
	"cptgpt/internal/nn"
	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
)

// Config holds the NetShare model hyperparameters.
type Config struct {
	// Generation fixes the event vocabulary.
	Generation events.Generation
	// BatchGen is S, the number of samples emitted per LSTM step (the
	// paper's batch generation; DoppelGANger defaults to 5).
	BatchGen int
	// Steps is the number of LSTM steps, so MaxLen = BatchGen·Steps.
	Steps int
	// NoiseDim is the per-step noise input dimension.
	NoiseDim int
	// Hidden is the LSTM hidden size.
	Hidden int
	// DiscHidden sizes the discriminator MLP's hidden layers.
	DiscHidden int
	// BatchSize is the GAN minibatch (streams per step).
	BatchSize int
	// LR is the generator's Adam learning rate.
	LR float64
	// DLR is the discriminator's learning rate; 0 means LR/4 (a two
	// time-scale update rule keeping the discriminator from overpowering
	// the generator at this model scale).
	DLR float64
	// LabelSmooth is the one-sided real-label target (e.g. 0.9); 0 means
	// no smoothing.
	LabelSmooth float64
	// InstanceNoise is the initial stddev of Gaussian noise added to
	// discriminator inputs, decayed linearly to zero over training; 0
	// disables it.
	InstanceNoise float64
	// Epochs is the number of passes over the training streams.
	Epochs int
	// Seed fixes initialization and sampling randomness.
	Seed uint64
}

// DefaultConfig returns a CPU-sized NetShare configuration.
func DefaultConfig() Config {
	return Config{
		Generation:    events.Gen4G,
		BatchGen:      5,
		Steps:         12,
		NoiseDim:      8,
		Hidden:        48,
		DiscHidden:    64,
		BatchSize:     16,
		LR:            2e-3,
		DLR:           2e-3,
		LabelSmooth:   0.9,
		InstanceNoise: 0.1,
		Epochs:        30,
		Seed:          11,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.BatchGen <= 0 || c.Steps <= 0:
		return fmt.Errorf("netshare: BatchGen and Steps must be positive")
	case c.NoiseDim <= 0 || c.Hidden <= 0 || c.DiscHidden <= 0:
		return fmt.Errorf("netshare: NoiseDim/Hidden/DiscHidden must be positive")
	case c.BatchSize <= 0:
		return fmt.Errorf("netshare: BatchSize must be positive")
	case !(c.LR > 0) || math.IsInf(c.LR, 1):
		return fmt.Errorf("netshare: LR must be positive and finite, got %v", c.LR)
	case !(c.DLR >= 0) || math.IsInf(c.DLR, 1):
		return fmt.Errorf("netshare: DLR must be non-negative and finite, got %v", c.DLR)
	case !(c.LabelSmooth >= 0 && c.LabelSmooth <= 1):
		return fmt.Errorf("netshare: LabelSmooth must be in [0, 1], got %v", c.LabelSmooth)
	case !(c.InstanceNoise >= 0) || math.IsInf(c.InstanceNoise, 1):
		return fmt.Errorf("netshare: InstanceNoise must be non-negative and finite, got %v", c.InstanceNoise)
	case c.Epochs <= 0:
		return fmt.Errorf("netshare: Epochs must be positive")
	}
	return nil
}

// MaxLen returns the maximum stream length the model can generate.
func (c Config) MaxLen() int { return c.BatchGen * c.Steps }

// fieldsPerSample returns V (event one-hot) + 1 (interarrival) + 1 (stop).
func (c Config) fieldsPerSample() int {
	return len(events.Vocabulary(c.Generation)) + 2
}

// seqDim returns the flattened sequence dimension plus the length-fraction
// feature and the 2 range features.
func (c Config) seqDim() int { return c.Steps*c.BatchGen*c.fieldsPerSample() + 3 }

// Model is the NetShare generator/discriminator pair.
type Model struct {
	Cfg Config

	// Gen is the LSTM generator core.
	Gen *nn.LSTMCell
	// Head maps the LSTM hidden state to one batch of S raw samples.
	Head *nn.MLP
	// Range maps the first noise vector to the per-stream (minLog,
	// widthLog) normalization range.
	Range *nn.MLP
	// Disc scores flattened sequences.
	Disc *nn.MLP
}

// New builds an initialized NetShare model: its weights are drawn from an
// RNG seeded with cfg.Seed.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newModel(cfg, stats.NewRand(cfg.Seed)), nil
}

// newModel builds the model of a valid cfg, drawing its weights from rng;
// a nil rng leaves the drawn ones zero, for a model whose weights are about
// to be overwritten (Load, Clone).
func newModel(cfg Config, rng *rand.Rand) *Model {
	fps := cfg.fieldsPerSample()
	m := &Model{Cfg: cfg}
	// The LSTM consumes [stream noise z0 | step noise z_t] at every step:
	// z0 is shared with the range head so the per-stream normalization
	// range and the sequence are generated coherently (as DoppelGANger
	// couples metadata and time-series through shared conditioning).
	m.Gen = nn.NewLSTMCell(2*cfg.NoiseDim, cfg.Hidden, rng)
	m.Head = nn.NewMLP(rng, cfg.Hidden, cfg.Hidden, cfg.BatchGen*fps)
	// Bias the stop outputs negative so the initial termination hazard is
	// ≈ 7% per sample instead of sigmoid(0) = 50%; without this the
	// untrained generator emits near-empty streams and adversarial
	// training settles in that degenerate basin.
	lastBias := m.Head.Layers[len(m.Head.Layers)-1].B
	for s := 0; s < cfg.BatchGen; s++ {
		lastBias.Data[s*fps+fps-1] = -2.5
	}
	m.Range = nn.NewMLP(rng, cfg.NoiseDim, cfg.Hidden/2, 2)
	// +1: the minibatch-variance feature (see discInput), the specialized
	// anti-mode-collapse enhancement GAN baselines need (the paper's L5).
	m.Disc = nn.NewMLP(rng, cfg.seqDim()+1, cfg.DiscHidden, cfg.DiscHidden/2, 1)
	return m
}

// discInput augments a batch of flattened sequences with a minibatch
// statistic: the mean per-column variance across the batch, broadcast to
// every row. A per-example discriminator cannot see distribution-level
// collapse (every fake identical yet individually plausible); this feature
// makes collapse directly visible, the standard minibatch-discrimination
// remedy the paper alludes to in L5.
func (m *Model) discInput(x *tensor.Tensor) *tensor.Tensor {
	mean := tensor.MeanRows(x)
	centered := tensor.Add(x, tensor.Scale(mean, -1))
	variance := tensor.Mean(tensor.Mul(centered, centered))
	return tensor.ConcatCols(x, tensor.BroadcastScalar(variance, x.Rows))
}

// GenParams returns the generator-side parameters (LSTM + head + range).
func (m *Model) GenParams() []*tensor.Tensor {
	ps := m.Gen.Params()
	ps = append(ps, m.Head.Params()...)
	ps = append(ps, m.Range.Params()...)
	return ps
}

// DiscParams returns the discriminator parameters.
func (m *Model) DiscParams() []*tensor.Tensor { return m.Disc.Params() }

// NumParams returns the total scalar parameter count of both players.
func (m *Model) NumParams() int {
	return nn.NumParams(m.GenParams()) + nn.NumParams(m.DiscParams())
}

// activateHead converts raw head outputs (B × S·fps) into activated,
// alive-gated sample fields: softmax over each sample's event block, sigmoid
// on interarrival and stop. The soft (probability-valued) representation is
// what the discriminator consumes during training, as in DoppelGANger.
//
// alive is a B×1 soft continuation mask: 1 while the stream is running,
// decaying toward 0 once a stop flag fires. Event and interarrival fields of
// each sample are multiplied by the mask (DoppelGANger's generation-flag
// gating), so a stopped fake stream fades to zeros exactly like the padded
// region of a real stream — without that gating the discriminator wins on a
// trivial tell and training collapses. It returns the gated fields, the
// updated mask and the per-step alive mass (sum over the step's samples).
func (m *Model) activateHead(raw, alive *tensor.Tensor) (gated, nextAlive, stepAlive *tensor.Tensor) {
	v := len(events.Vocabulary(m.Cfg.Generation))
	fps := m.Cfg.fieldsPerSample()
	b := raw.Rows
	ones := tensor.New(b, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	stepAlive = tensor.New(b, 1)
	parts := make([]*tensor.Tensor, 0, 3*m.Cfg.BatchGen)
	for s := 0; s < m.Cfg.BatchGen; s++ {
		base := s * fps
		ev := tensor.Softmax(tensor.SliceCols(raw, base, base+v))
		ia := tensor.Sigmoid(tensor.SliceCols(raw, base+v, base+v+1))
		stop := tensor.Sigmoid(tensor.SliceCols(raw, base+v+1, base+v+2))
		parts = append(parts,
			tensor.ScaleRows(ev, alive),
			tensor.ScaleRows(ia, alive),
			// The padded region of a real stream keeps its stop flag
			// raised; mirror that by emitting stop·alive + (1-alive).
			tensor.Add(tensor.ScaleRows(stop, alive), tensor.Sub(ones, alive)))
		stepAlive = tensor.Add(stepAlive, alive)
		// alive ← alive · (1 − stop)
		alive = tensor.Mul(alive, tensor.Sub(ones, stop))
	}
	return tensor.ConcatCols(parts...), alive, stepAlive
}

// generateSoft runs the generator over noise and returns the flattened soft
// alive-gated sequence plus range features (B × seqDim), differentiable
// end-to-end. This is the discriminator-facing path.
func (m *Model) generateSoft(noise []*tensor.Tensor, rangeNoise *tensor.Tensor) *tensor.Tensor {
	b := rangeNoise.Rows
	h, c := m.Gen.ZeroState(b)
	alive := tensor.New(b, 1)
	for i := range alive.Data {
		alive.Data[i] = 1
	}
	// aliveSum accumulates the soft effective length, which becomes an
	// explicit discriminator feature: without it a per-example
	// discriminator barely sees stream length and the generator collapses
	// to near-empty streams (stopping immediately is the easiest way to
	// imitate padding).
	aliveSum := tensor.New(b, 1)
	var stepsOut []*tensor.Tensor
	for _, z := range noise {
		h, c = m.Gen.Step(z, h, c)
		raw := m.Head.Forward(h)
		var gated *tensor.Tensor
		var stepAlive *tensor.Tensor
		gated, alive, stepAlive = m.activateHead(raw, alive)
		aliveSum = tensor.Add(aliveSum, stepAlive)
		stepsOut = append(stepsOut, gated)
	}
	stepsOut = append(stepsOut, tensor.Scale(aliveSum, 1/float64(m.Cfg.MaxLen())))
	rng := m.Range.Forward(rangeNoise) // B×2: raw (minLog, logWidth)
	stepsOut = append(stepsOut, rng)
	return tensor.ConcatCols(stepsOut...)
}

// generateRaw runs the generator for one stream (B=1) and returns the
// ungated activated fields per sample — softmax event probabilities,
// sigmoid interarrival and sigmoid stop probability — plus the raw range
// pair. This is the decoding-facing path: the stop probability is a
// per-sample Bernoulli hazard matching the soft survival mask the
// discriminator was trained against.
func (m *Model) generateRaw(noise []*tensor.Tensor, rangeNoise *tensor.Tensor) (fields []float64, rawMin, rawLogWidth float64) {
	h, c := m.Gen.ZeroState(1)
	v := len(events.Vocabulary(m.Cfg.Generation))
	fps := m.Cfg.fieldsPerSample()
	out := make([]float64, 0, m.Cfg.MaxLen()*fps)
	for _, z := range noise {
		h, c = m.Gen.Step(z, h, c)
		raw := m.Head.Forward(h)
		for s := 0; s < m.Cfg.BatchGen; s++ {
			base := s * fps
			ev := tensor.Softmax(tensor.SliceCols(raw, base, base+v))
			ia := tensor.Sigmoid(tensor.SliceCols(raw, base+v, base+v+1))
			stop := tensor.Sigmoid(tensor.SliceCols(raw, base+v+1, base+v+2))
			out = append(out, ev.Data...)
			out = append(out, ia.Data[0], stop.Data[0])
		}
	}
	rng := m.Range.Forward(rangeNoise)
	return out, rng.Data[0], rng.Data[1]
}

// rangeFromRaw maps the generator's raw range outputs (minLog, logWidth) to
// a usable (minLog, width) pair; the log-width is clamped so an untrained
// generator cannot produce astronomically wide ranges.
func rangeFromRaw(rawMin, rawLogWidth float64) (minLog, width float64) {
	lw := math.Min(math.Max(rawLogWidth, -6), 5)
	return rawMin, math.Exp(lw)
}
