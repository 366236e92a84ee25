package cptgpt

import (
	"fmt"
	"math"
	"math/rand/v2"

	"cptgpt/internal/events"
	"cptgpt/internal/nn"
	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
)

// Config holds the model and training hyperparameters. The paper's tuned
// model uses 2 attention blocks, embedding dimension 128 and MLP hidden
// size 1024 (725K parameters); the defaults here are scaled for CPU
// training while preserving the architecture (see docs/ARCHITECTURE.md,
// "What stands in for the paper's substrate").
type Config struct {
	// Generation selects the event vocabulary (and so the token dimension).
	Generation events.Generation
	// DModel is the attention hidden size (paper: 128).
	DModel int
	// Heads is the attention head count.
	Heads int
	// Blocks is the number of decoder blocks (paper: 2).
	Blocks int
	// MLPHidden is the per-block feed-forward hidden size (paper: 1024).
	MLPHidden int
	// HeadHidden is the hidden size of the three output MLP heads.
	HeadHidden int
	// MaxLen is the maximum stream length the model generates (paper: 500).
	MaxLen int

	// LR is the Adam learning rate.
	LR float64
	// Epochs is the number of passes over the training streams.
	Epochs int
	// AccumStreams is the number of streams in one optimizer step: Train
	// packs them into one forward pass (a padding-free concatenated
	// minibatch with a block-diagonal causal mask). 0 means 1.
	AccumStreams int
	// LossWeights weights the [event, interarrival, stop] losses in the
	// total (the paper trains 1:1:1 and studies 3:1:1 / 1:3:1 / 1:1:3).
	LossWeights [3]float64
	// DistHead enables Design 2 (predict Gaussian parameters for the
	// interarrival). Disabling it reproduces the Table 8 ablation where the
	// head regresses a single scalar trained with MSE.
	DistHead bool
	// Dropout is applied inside blocks during training (0 disables).
	Dropout float64
	// Seed fixes initialization and training-order randomness.
	Seed uint64
}

// DefaultConfig returns a CPU-sized configuration for 4G traffic.
func DefaultConfig() Config {
	return Config{
		Generation:   events.Gen4G,
		DModel:       32,
		Heads:        4,
		Blocks:       2,
		MLPHidden:    64,
		HeadHidden:   32,
		MaxLen:       200,
		LR:           3e-3,
		Epochs:       4,
		AccumStreams: 4,
		LossWeights:  [3]float64{1, 1, 1},
		DistHead:     true,
		Seed:         7,
	}
}

// Validate checks config consistency.
func (c Config) Validate() error {
	switch {
	case c.DModel <= 0 || c.Heads <= 0 || c.Blocks <= 0:
		return fmt.Errorf("cptgpt: DModel/Heads/Blocks must be positive")
	case c.DModel%c.Heads != 0:
		return fmt.Errorf("cptgpt: DModel %d must be divisible by Heads %d", c.DModel, c.Heads)
	case c.MaxLen < 2:
		return fmt.Errorf("cptgpt: MaxLen must be ≥ 2, got %d", c.MaxLen)
	case !(c.LR > 0) || math.IsInf(c.LR, 1):
		return fmt.Errorf("cptgpt: LR must be positive and finite, got %v", c.LR)
	case c.Epochs <= 0:
		return fmt.Errorf("cptgpt: Epochs must be positive, got %d", c.Epochs)
	case c.AccumStreams < 0:
		return fmt.Errorf("cptgpt: AccumStreams must be non-negative, got %d", c.AccumStreams)
	case !(c.Dropout >= 0 && c.Dropout < 1):
		return fmt.Errorf("cptgpt: Dropout must be in [0, 1), got %v", c.Dropout)
	}
	for i, w := range c.LossWeights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("cptgpt: LossWeights[%d] = %v must be non-negative and finite", i, w)
		}
	}
	return nil
}

// Model is the CPT-GPT network (Figure 3): a linear token projection plus
// learned positional embeddings, a stack of causal decoder blocks, a final
// layer norm and three MLP heads (event type, interarrival, stop flag).
type Model struct {
	Cfg Config
	Tok Tokenizer

	InProj   *nn.Linear     // d_token → d_model ("embedding" replacement)
	PosEmb   *tensor.Tensor // MaxLen × d_model learned positions
	BlocksNN []*nn.Block
	Final    *nn.LayerNorm
	EventHd  *nn.MLP // d_model → V logits
	IAHd     *nn.MLP // d_model → 2 (mean, logStd) or 1 when !DistHead
	StopHd   *nn.MLP // d_model → 2 logits

	// InitialDist is the distribution of first-event types extracted from
	// the training set and released with the model (§4.5).
	InitialDist []float64

	// infer caches the frozen float32 inference snapshot (see Infer). It is
	// derived state — never serialized, dropped by Clone's rebuild, and
	// invalidated by Train/FineTune after weight updates.
	infer inferCache
	// draft caches the self-fitted speculative draft proposer (see
	// SelfDraft); derived state with the same lifecycle as infer.
	draft draftCache
}

// NewModel builds an initialized model for the tokenizer's vocabulary: its
// weights are drawn from an RNG seeded with cfg.Seed.
func NewModel(cfg Config, tok Tokenizer) (*Model, error) {
	if err := checkShape(cfg, tok); err != nil {
		return nil, err
	}
	return newModel(cfg, tok, stats.NewRand(cfg.Seed)), nil
}

// checkShape reports a config or tokenizer no model can be built from.
func checkShape(cfg Config, tok Tokenizer) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if tok.Gen != cfg.Generation {
		return fmt.Errorf("cptgpt: tokenizer generation %s does not match config %s", tok.Gen, cfg.Generation)
	}
	return nil
}

// newModel builds the model checkShape accepted, drawing its weights from
// rng; a nil rng leaves them zero, for a model whose weights are about to
// be overwritten (Load, Clone).
func newModel(cfg Config, tok Tokenizer, rng *rand.Rand) *Model {
	m := &Model{Cfg: cfg, Tok: tok}
	m.InProj = nn.NewLinear(tok.Dim(), cfg.DModel, rng)
	m.PosEmb = tensor.Randn(cfg.MaxLen, cfg.DModel, 0.02, rng).Param()
	for i := 0; i < cfg.Blocks; i++ {
		m.BlocksNN = append(m.BlocksNN, nn.NewBlock(cfg.DModel, cfg.Heads, cfg.MLPHidden, rng))
	}
	m.Final = nn.NewLayerNorm(cfg.DModel)
	m.EventHd = nn.NewMLP(rng, cfg.DModel, cfg.HeadHidden, tok.V())
	iaOut := 2
	if !cfg.DistHead {
		iaOut = 1
	}
	m.IAHd = nn.NewMLP(rng, cfg.DModel, cfg.HeadHidden, iaOut)
	m.StopHd = nn.NewMLP(rng, cfg.DModel, cfg.HeadHidden, 2)
	m.InitialDist = make([]float64, tok.V())
	for i := range m.InitialDist {
		m.InitialDist[i] = 1 / float64(tok.V())
	}
	return m
}

// paramCount is NumParams of the model newModel builds from cfg and tok,
// in closed form, so Load can check a file's stored values against it
// before it builds anything. It counts in float64: every term is a
// non-negative integer, so a count below 2^53 is exact, and one that
// would overflow an int reads as at least 2^53, which no stored file
// matches.
func paramCount(cfg Config, tok Tokenizer) float64 {
	d, h, hh := float64(cfg.DModel), float64(cfg.MLPHidden), float64(cfg.HeadHidden)
	linear := func(in, out float64) float64 { return in*out + out }
	head := func(out float64) float64 { return linear(d, hh) + linear(hh, out) }
	iaOut := 2.0
	if !cfg.DistHead {
		iaOut = 1
	}
	block := 2*d + 4*linear(d, d) + 2*d + linear(d, h) + linear(h, d)
	return linear(float64(tok.Dim()), d) + float64(cfg.MaxLen)*d +
		float64(cfg.Blocks)*block + 2*d +
		head(float64(tok.V())) + head(iaOut) + head(2)
}

// Params returns all trainable parameters in a stable order.
func (m *Model) Params() []*tensor.Tensor {
	ps := m.InProj.Params()
	ps = append(ps, m.PosEmb)
	for _, b := range m.BlocksNN {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, m.Final.Params()...)
	ps = append(ps, m.EventHd.Params()...)
	ps = append(ps, m.IAHd.Params()...)
	ps = append(ps, m.StopHd.Params()...)
	return ps
}

// NumParams returns the scalar parameter count.
func (m *Model) NumParams() int { return nn.NumParams(m.Params()) }

// Heads bundles the per-position head outputs of a forward pass.
type Heads struct {
	// EventLogits is T×V.
	EventLogits *tensor.Tensor
	// IAMean is T×1 (scaled space).
	IAMean *tensor.Tensor
	// IALogStd is T×1; nil when the distribution head is disabled.
	IALogStd *tensor.Tensor
	// StopLogits is T×2.
	StopLogits *tensor.Tensor
}

// Forward runs the network over a token matrix (T×d_token) and returns the
// three head outputs for every position. When dropRng is non-nil, dropout
// is active (training mode).
func (m *Model) Forward(tokens *tensor.Tensor, dropRng *rand.Rand) (*Heads, error) {
	t := tokens.Rows
	if t > m.Cfg.MaxLen {
		return nil, fmt.Errorf("cptgpt: sequence length %d exceeds MaxLen %d", t, m.Cfg.MaxLen)
	}
	x := m.InProj.Forward(tokens)
	x = tensor.Add(x, tensor.SliceRows(m.PosEmb, 0, t))
	for _, b := range m.BlocksNN {
		x = b.Forward(x)
		if m.Cfg.Dropout > 0 && dropRng != nil {
			x = tensor.Dropout(x, m.Cfg.Dropout, dropRng)
		}
	}
	x = m.Final.Forward(x)
	return m.headsOf(x), nil
}

// headsOf applies the final-norm output to the three MLP heads — the shared
// tail of Forward and ForwardPacked (all heads are row-wise).
func (m *Model) headsOf(x *tensor.Tensor) *Heads {
	h := &Heads{
		EventLogits: m.EventHd.Forward(x),
		StopLogits:  m.StopHd.Forward(x),
	}
	ia := m.IAHd.Forward(x)
	if m.Cfg.DistHead {
		h.IAMean = tensor.SliceCols(ia, 0, 1)
		// Clamp log-std to a sane range to keep the NLL well-conditioned.
		h.IALogStd = tensor.Clamp(tensor.SliceCols(ia, 1, 2), -6, 2)
	} else {
		h.IAMean = ia
	}
	return h
}

// Loss computes the weighted multi-field training loss for one encoded
// stream (Design 2: Gaussian NLL for the numeric field, cross-entropy for
// the categorical fields).
func (m *Model) Loss(h *Heads, tg *Targets) *tensor.Tensor {
	w := m.Cfg.LossWeights
	evLoss := tensor.CrossEntropy(h.EventLogits, tg.Event)
	stopLoss := tensor.CrossEntropy(h.StopLogits, tg.Stop)
	var iaLoss *tensor.Tensor
	if m.Cfg.DistHead {
		iaLoss = tensor.GaussianNLL(h.IAMean, h.IALogStd, tg.IA, tg.IAMask)
	} else {
		iaLoss = tensor.MSE(h.IAMean, tg.IA, tg.IAMask)
	}
	return tensor.AddScalars([]float64{w[0], w[1], w[2]}, evLoss, iaLoss, stopLoss)
}
