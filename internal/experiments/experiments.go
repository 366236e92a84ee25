// Package experiments regenerates every table and figure of the paper's
// evaluation (§5). Each experiment is a function from a Lab — a cache of
// ground-truth traces and trained generators — to a Report carrying one or
// more rendered tables. The per-experiment index lives in DESIGN.md §4;
// EXPERIMENTS.md records paper-vs-measured values.
//
// Experiments are deterministic for a fixed Scale and seed, and all heavy
// artifacts (datasets, trained models, timing runs) are built lazily and
// shared across experiments through the Lab.
package experiments

import (
	"fmt"
	"math"
	"sync"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/metrics"
	"cptgpt/internal/netshare"
	"cptgpt/internal/smm"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/trace"
)

// Scale selects the experiment size preset.
type Scale int

const (
	// Unit is the smallest preset, sized for `go test`.
	Unit Scale = iota
	// Short is the benchmark preset (default for cmd/cptexperiments).
	Short
	// Full is the paper-shaped preset (1000 generated UEs per generator,
	// six hourly models) for unattended runs.
	Full
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Unit:
		return "unit"
	case Short:
		return "short"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts "unit" / "short" / "full".
func ParseScale(s string) (Scale, error) {
	switch s {
	case "unit":
		return Unit, nil
	case "short":
		return Short, nil
	case "full":
		return Full, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want unit, short or full)", s)
	}
}

// sizes bundles every scale-dependent knob.
type sizes struct {
	trainUEs   map[events.DeviceType]int
	evalUEs    int // generated streams per generator per device
	cptEpochs  int
	cptFTEps   int // fine-tune epochs (device transfer)
	cptDModel  int
	nsEpochs   int
	nsFTEps    int
	smmK       int
	hours      int // hourly-drift experiments (Tables 4, 9, 10)
	hourEpochs int // per-hour scratch epoch budget
	scaleMults []int
	memStreams int // generated streams for the memorization audit
}

func (s Scale) sizes() sizes {
	switch s {
	case Full:
		return sizes{
			trainUEs:   map[events.DeviceType]int{events.Phone: 1200, events.ConnectedCar: 700, events.Tablet: 500},
			evalUEs:    1000,
			cptEpochs:  24,
			cptFTEps:   8,
			cptDModel:  32,
			nsEpochs:   40,
			nsFTEps:    16,
			smmK:       32,
			hours:      6,
			hourEpochs: 20,
			scaleMults: []int{1, 2, 4, 8, 16},
			memStreams: 600,
		}
	case Short:
		return sizes{
			trainUEs:   map[events.DeviceType]int{events.Phone: 500, events.ConnectedCar: 300, events.Tablet: 250},
			evalUEs:    500,
			cptEpochs:  20,
			cptFTEps:   7,
			cptDModel:  32,
			nsEpochs:   30,
			nsFTEps:    12,
			smmK:       16,
			hours:      4,
			hourEpochs: 14,
			scaleMults: []int{1, 2, 4, 8},
			memStreams: 300,
		}
	default: // Unit
		return sizes{
			trainUEs:   map[events.DeviceType]int{events.Phone: 150, events.ConnectedCar: 90, events.Tablet: 80},
			evalUEs:    150,
			cptEpochs:  6,
			cptFTEps:   3,
			cptDModel:  24,
			nsEpochs:   6,
			nsFTEps:    3,
			smmK:       6,
			hours:      2,
			hourEpochs: 4,
			scaleMults: []int{1, 2},
			memStreams: 100,
		}
	}
}

// Lab caches the shared experiment artifacts: ground-truth train/test
// traces per device type and the four trained generators per device type.
// All fields build lazily; a Lab is safe for sequential use (experiments
// run one at a time, as in the paper's pipeline).
type Lab struct {
	Scale Scale
	Seed  uint64
	// Log, when non-nil, receives progress lines (training announcements).
	Log func(format string, args ...any)
	// Parallelism bounds per-generator sampling concurrency; 0 means the
	// tensor-layer default (GOMAXPROCS, or tensor.SetParallelism's value).
	// Generated datasets are identical at every setting.
	Parallelism int
	// BatchSize is the CPT-GPT decode batch (slots per decoder); 0 means the
	// generator default.
	BatchSize int
	// Microbatch is the CPT-GPT packed-minibatch size for training (streams
	// per forward pass); 0 means the model-config default. Trained weights
	// are bit-identical at every setting (Dropout is 0 here), so results do
	// not depend on it.
	Microbatch int

	sz sizes

	mu     sync.Mutex
	train  map[events.DeviceType]*trace.Dataset
	test   map[events.DeviceType]*trace.Dataset
	cpt    map[events.DeviceType]*cptgpt.Model
	ns     map[events.DeviceType]*netshare.Model
	smm1   map[events.DeviceType]*smm.Model
	smmK   map[events.DeviceType]*smm.Model
	gen    map[string]*trace.Dataset   // cached synthesized datasets
	hourly map[uint64][]*trace.Dataset // multi-hour traces sliced per hour, by seed
	timing *timingResults
}

// NewLab creates a lab at the given scale. Seed 0 selects the default seed.
func NewLab(scale Scale, seed uint64) *Lab {
	if seed == 0 {
		seed = 1
	}
	return &Lab{
		Scale:  scale,
		Seed:   seed,
		sz:     scale.sizes(),
		train:  make(map[events.DeviceType]*trace.Dataset),
		test:   make(map[events.DeviceType]*trace.Dataset),
		cpt:    make(map[events.DeviceType]*cptgpt.Model),
		ns:     make(map[events.DeviceType]*netshare.Model),
		smm1:   make(map[events.DeviceType]*smm.Model),
		smmK:   make(map[events.DeviceType]*smm.Model),
		gen:    make(map[string]*trace.Dataset),
		hourly: make(map[uint64][]*trace.Dataset),
	}
}

// cached returns cache[key], building and storing it on a miss. The build
// runs outside the lock — builders reach back into the Lab (CPT(dev) needs
// CPT(Phone), every model needs Train) — so two concurrent first callers
// may both build; builds are deterministic and the Lab is used
// sequentially, so that costs time at worst. A failed build caches nothing.
func cached[K comparable, V any](l *Lab, cache map[K]V, key K, build func() (V, error)) (V, error) {
	l.mu.Lock()
	v, ok := cache[key]
	l.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	l.mu.Lock()
	cache[key] = v
	l.mu.Unlock()
	return v, nil
}

func (l *Lab) logf(format string, args ...any) {
	if l.Log != nil {
		l.Log(format, args...)
	}
}

// groundTruth builds a 1-hour ground-truth trace for one device type.
func (l *Lab) groundTruth(dev events.DeviceType, seed uint64) (*trace.Dataset, error) {
	cfg := synthetic.Config{
		Generation: events.Gen4G,
		Seed:       seed,
		UEs:        map[events.DeviceType]int{dev: l.sz.trainUEs[dev]},
		Hours:      1,
		StartHour:  10,
	}
	return synthetic.Generate(cfg)
}

// Train returns the training ("June") trace for a device type.
func (l *Lab) Train(dev events.DeviceType) (*trace.Dataset, error) {
	return cached(l, l.train, dev, func() (*trace.Dataset, error) { return l.groundTruth(dev, l.Seed) })
}

// Test returns the held-out ("August") trace for a device type — same
// generating process, disjoint seed, as the paper trains on one collection
// period and tests on another.
func (l *Lab) Test(dev events.DeviceType) (*trace.Dataset, error) {
	return cached(l, l.test, dev, func() (*trace.Dataset, error) { return l.groundTruth(dev, l.Seed^0xA0605) })
}

// probeFor returns the fidelity score function (lower = better) used for
// checkpoint ranking, matching the paper's §5.5 heuristic: generate a small
// sample and combine the distribution metrics against a validation slice.
func (l *Lab) probeFor(val *trace.Dataset, generate func() (*trace.Dataset, error)) func() float64 {
	return func() float64 {
		g, err := generate()
		if err != nil {
			return math.Inf(1)
		}
		f := metrics.Evaluate(val, g)
		return f.FlowLenMaxY + f.SojournConnMaxY + f.SojournIdleMaxY +
			5*f.AvgAbsBreakdownDiff + 3*f.EventViolation
	}
}

// cptConfig returns the scale's CPT-GPT model configuration.
func (l *Lab) cptConfig() cptgpt.Config {
	cfg := cptgpt.DefaultConfig()
	cfg.DModel = l.sz.cptDModel
	cfg.Heads = 4
	cfg.MLPHidden = 2 * l.sz.cptDModel
	cfg.HeadHidden = l.sz.cptDModel
	cfg.MaxLen = 200
	cfg.Epochs = l.sz.cptEpochs
	cfg.LR = 3e-3
	cfg.AccumStreams = 4
	cfg.Seed = l.Seed ^ 0xC97
	return cfg
}

// CPT returns the trained CPT-GPT model for a device type. The phone model
// is trained from scratch; connected-car and tablet models are adapted from
// it by transfer learning, exactly as §5.1 describes.
func (l *Lab) CPT(dev events.DeviceType) (*cptgpt.Model, error) {
	return cached(l, l.cpt, dev, func() (*cptgpt.Model, error) { return l.trainCPT(dev) })
}

func (l *Lab) trainCPT(dev events.DeviceType) (*cptgpt.Model, error) {
	if dev != events.Phone {
		base, err := l.CPT(events.Phone)
		if err != nil {
			return nil, err
		}
		d, err := l.Train(dev)
		if err != nil {
			return nil, err
		}
		m, err := base.Clone()
		if err != nil {
			return nil, err
		}
		l.logf("fine-tuning CPT-GPT %s model from phone base (%d streams)", dev, d.NumStreams())
		if _, err := cptgpt.FineTune(m, d, cptgpt.TrainOpts{Epochs: l.sz.cptFTEps, Parallelism: l.Parallelism, MicrobatchStreams: l.Microbatch}); err != nil {
			return nil, err
		}
		return m, nil
	}

	d, err := l.Train(events.Phone)
	if err != nil {
		return nil, err
	}
	tok := cptgpt.FitTokenizer(d)
	m, err := cptgpt.NewModel(l.cptConfig(), tok)
	if err != nil {
		return nil, err
	}
	// No checkpoint-ranking probe here: supervised training is stable, and
	// at this probe-sample size the KS noise floor (~0.1 for 120 streams)
	// makes checkpoint selection worse than simply taking the final epoch.
	// The GAN baseline keeps the probe (NetShare in this lab) because its
	// losses genuinely do not track sample quality (§5.5).
	l.logf("training CPT-GPT phone model from scratch (%d streams, %d epochs)", d.NumStreams(), l.sz.cptEpochs)
	if _, err := cptgpt.Train(m, d, cptgpt.TrainOpts{Parallelism: l.Parallelism, MicrobatchStreams: l.Microbatch}); err != nil {
		return nil, err
	}
	return m, nil
}

// nsConfig returns the scale's NetShare configuration.
func (l *Lab) nsConfig() netshare.Config {
	cfg := netshare.DefaultConfig()
	cfg.Epochs = l.sz.nsEpochs
	cfg.Seed = l.Seed ^ 0x75
	return cfg
}

// NetShare returns the trained NetShare model for a device type, built with
// the same scratch-then-transfer scheme as CPT-GPT and checkpoint-ranked
// with the fidelity probe (§5.5).
func (l *Lab) NetShare(dev events.DeviceType) (*netshare.Model, error) {
	return cached(l, l.ns, dev, func() (*netshare.Model, error) { return l.trainNetShare(dev) })
}

func (l *Lab) trainNetShare(dev events.DeviceType) (*netshare.Model, error) {
	d, err := l.Train(dev)
	if err != nil {
		return nil, err
	}
	val := d.Sample(200)

	var m *netshare.Model
	epochs := l.sz.nsEpochs
	if dev != events.Phone {
		base, err := l.NetShare(events.Phone)
		if err != nil {
			return nil, err
		}
		if m, err = base.Clone(); err != nil {
			return nil, err
		}
		epochs = l.sz.nsFTEps
		l.logf("fine-tuning NetShare %s model from phone base (%d streams)", dev, d.NumStreams())
	} else {
		if m, err = netshare.New(l.nsConfig()); err != nil {
			return nil, err
		}
		l.logf("training NetShare phone model from scratch (%d streams, %d epochs)", d.NumStreams(), epochs)
	}
	probe := l.probeFor(val, func() (*trace.Dataset, error) {
		return m.Generate(netshare.GenOpts{NumStreams: 120, Device: dev, Seed: l.Seed ^ 0x9999})
	})
	if _, err := netshare.Train(m, d, netshare.TrainOpts{Epochs: epochs, Probe: probe, ProbeEvery: 2, Parallelism: l.Parallelism}); err != nil {
		return nil, err
	}
	return m, nil
}

// SMM returns the fitted SMM baseline for a device type: clustered=false
// gives SMM-1, clustered=true gives SMM-K.
func (l *Lab) SMM(dev events.DeviceType, clustered bool) (*smm.Model, error) {
	cache := l.smm1
	if clustered {
		cache = l.smmK
	}
	return cached(l, cache, dev, func() (*smm.Model, error) {
		d, err := l.Train(dev)
		if err != nil {
			return nil, err
		}
		cfg := smm.DefaultConfig()
		cfg.Seed = l.Seed ^ 0x5111
		if clustered {
			cfg.K = l.sz.smmK
		}
		return smm.Fit(d, cfg)
	})
}

// GeneratorID names the four generators of the evaluation.
type GeneratorID string

// Generator identifiers, in the paper's column order.
const (
	GenSMM1     GeneratorID = "SMM-1"
	GenSMMK     GeneratorID = "SMM-K"
	GenNetShare GeneratorID = "NetShare"
	GenCPTGPT   GeneratorID = "CPT-GPT"
)

// AllGenerators returns the generator ids in presentation order.
func AllGenerators() []GeneratorID {
	return []GeneratorID{GenSMM1, GenSMMK, GenNetShare, GenCPTGPT}
}

// Generated returns (and caches) the synthesized dataset of one generator
// for one device type, sized by the scale's evalUEs (the paper synthesizes
// 1000 streams per generator for the fidelity evaluation).
func (l *Lab) Generated(id GeneratorID, dev events.DeviceType) (*trace.Dataset, error) {
	return l.GeneratedN(id, dev, l.sz.evalUEs)
}

// GeneratedN is Generated with an explicit stream count (used by the
// scalability study, Figure 6).
func (l *Lab) GeneratedN(id GeneratorID, dev events.DeviceType, n int) (*trace.Dataset, error) {
	return cached(l, l.gen, fmt.Sprintf("%s/%s/%d", id, dev, n), func() (*trace.Dataset, error) {
		seed := l.Seed ^ 0xEE<<8 ^ uint64(dev)
		switch id {
		case GenSMM1, GenSMMK:
			m, err := l.SMM(dev, id == GenSMMK)
			if err != nil {
				return nil, err
			}
			return m.Generate(smm.GenOpts{NumStreams: n, Device: dev, Seed: seed, Parallelism: l.Parallelism})
		case GenNetShare:
			m, err := l.NetShare(dev)
			if err != nil {
				return nil, err
			}
			return m.Generate(netshare.GenOpts{NumStreams: n, Device: dev, Seed: seed, Parallelism: l.Parallelism})
		case GenCPTGPT:
			m, err := l.CPT(dev)
			if err != nil {
				return nil, err
			}
			return m.Generate(cptgpt.GenOpts{NumStreams: n, Device: dev, Seed: seed, Parallelism: l.Parallelism, BatchSize: l.BatchSize})
		default:
			return nil, fmt.Errorf("experiments: unknown generator %q", id)
		}
	})
}

// Hourly returns the multi-hour train and test traces sliced per hour,
// building them on first use (drift experiments: Tables 4, 9, 10).
func (l *Lab) Hourly() (train, test []*trace.Dataset, err error) {
	mk := func(seed uint64) ([]*trace.Dataset, error) {
		return cached(l, l.hourly, seed, func() ([]*trace.Dataset, error) {
			d, err := synthetic.Generate(synthetic.Config{
				Generation: events.Gen4G,
				Seed:       seed,
				UEs:        map[events.DeviceType]int{events.Phone: l.sz.trainUEs[events.Phone]},
				Hours:      l.sz.hours,
				StartHour:  6, // crosses the morning diurnal ramp → real drift
			})
			if err != nil {
				return nil, err
			}
			out := make([]*trace.Dataset, l.sz.hours)
			for h := range out {
				out[h] = d.SliceHour(h)
			}
			return out, nil
		})
	}
	if train, err = mk(l.Seed ^ 0x40); err != nil {
		return nil, nil, err
	}
	if test, err = mk(l.Seed ^ 0x41); err != nil {
		return nil, nil, err
	}
	return train, test, nil
}
