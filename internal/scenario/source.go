package scenario

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/trace"
)

// ChunkFunc produces the UE streams with indices [lo, hi) of one source's
// population, deterministically: the concatenation over any partition of
// the index space must be identical (every repo generator guarantees this
// via index-seeded per-stream RNGs). This is the plug point for custom
// sources — an SMM or NetShare model binds as a ChunkFunc via
// RunOpts.Sources.
type ChunkFunc func(lo, hi int) ([]trace.Stream, error)

// defaultDeviceMix is the carrier-like device split used when a synthetic
// source declares none (phones dominate, as in the paper's trace).
var defaultDeviceMix = map[string]float64{
	"phone":         0.65,
	"connected_car": 0.26,
	"tablet":        0.09,
}

// apportion splits total into len(weights) integer counts proportional to
// weights, distributing rounding remainders deterministically (largest
// fractional part first, ties by index).
func apportion(weights []float64, total int) []int {
	var sum float64
	for _, w := range weights {
		sum += w
	}
	counts := make([]int, len(weights))
	if sum <= 0 || total <= 0 {
		return counts
	}
	fracs := make([]float64, len(weights))
	assigned := 0
	for i, w := range weights {
		exact := w / sum * float64(total)
		counts[i] = int(exact)
		fracs[i] = exact - float64(counts[i])
		assigned += counts[i]
	}
	order := make([]int, len(counts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for k := 0; assigned < total; k++ {
		counts[order[k%len(order)]]++
		assigned++
	}
	return counts
}

// boundSource is a spec source resolved against a run: a concrete UE count,
// a chunked generator and the compiled operator chain targeting it.
type boundSource struct {
	id    string
	n     int
	chunk ChunkFunc
	ops   []compiledOp
}

// sourceSeed derives a source's generator seed from the spec seed and the
// source's position, so sources are independent but reproducible.
func sourceSeed(spec *Spec, idx int) uint64 {
	return spec.Seed ^ mix64(uint64(idx)+0xd1b54a32d192ed03)
}

// resolveSources binds every spec source to a generator and its share of
// the population.
func resolveSources(spec *Spec, gen events.Generation, opts RunOpts, total int) ([]boundSource, error) {
	counts := sourceShares(spec, total)
	// One core budget for the generation phase (the rule of
	// cptgpt.GenOpts.Parallelism, one level up): spillChunks runs
	// min(workers, jobs) chunk workers and a model chunk's decoder fans each
	// step over the cores that leaves per worker. Many chunks → every step
	// inline; fewer chunks than cores (a default-sized run is one chunk per
	// source) → the decode still uses the whole budget.
	jobs := 0
	for _, n := range counts {
		jobs += (n + opts.chunkStreams() - 1) / opts.chunkStreams()
	}
	stepFanout := max(1, opts.workers()/max(1, min(opts.workers(), jobs)))
	bound := make([]boundSource, len(spec.Sources))
	for i := range spec.Sources {
		src := &spec.Sources[i]
		b := &bound[i]
		b.id = src.ID
		b.n = counts[i]
		var err error
		if b.ops, err = compileOps(spec, src.ID); err != nil {
			return nil, fmt.Errorf("scenario: source %q: %w", src.ID, err)
		}

		// A run-time binding overrides any declared kind.
		if fn, ok := opts.Sources[src.ID]; ok {
			b.chunk = fn
			continue
		}
		if b.n == 0 {
			// A zero share of the population: never pulled from.
			continue
		}
		bind, err := src.parse(spec, gen, sourceSeed(spec, i), b.n)
		if err == nil {
			b.chunk, err = bind(opts, stepFanout)
		}
		if err != nil {
			return nil, fmt.Errorf("scenario: source %q: %w", src.ID, err)
		}
	}
	return bound, nil
}

// parse checks one source's fields and returns their parsed form: a binder
// that builds the source's generator for a run (seed and n are the source's
// seed and UE count there). It holds every rule about a source field's value
// and is the only place that branches on Kind, so whatever would keep a run
// from opening for such a value fails Spec.Validate — which parses every
// source for a nominal population and drops the binder — first.
func (src *SourceSpec) parse(spec *Spec, gen events.Generation, seed uint64, n int) (func(opts RunOpts, stepFanout int) (ChunkFunc, error), error) {
	switch src.Kind {
	case "", "synthetic":
		cfg, err := syntheticConfig(spec, src, gen, seed, n)
		if err != nil {
			return nil, err
		}
		return func(_ RunOpts, stepFanout int) (ChunkFunc, error) {
			return func(lo, hi int) ([]trace.Stream, error) {
				return synthetic.GenerateRange(cfg, lo, hi, stepFanout)
			}, nil
		}, nil
	case "cptgpt":
		if src.ModelFile == "" {
			return nil, errors.New("cptgpt kind needs model_file")
		}
		if src.DraftTokens < 0 {
			return nil, fmt.Errorf("draft_tokens must be ≥ 0, got %d", src.DraftTokens)
		}
		declared := cptgpt.GenOpts{
			Device:      events.Phone,
			Seed:        seed,
			Temperature: src.Temperature,
			Speculative: src.Speculative,
			DraftTokens: src.DraftTokens,
			// Spread stream starts over the horizon; ramp ops can re-stage
			// populations on top of this.
			StartWindow: spec.HorizonSec,
		}
		var err error
		if src.Device != "" {
			if declared.Device, err = events.ParseDeviceType(src.Device); err != nil {
				return nil, fmt.Errorf("device: %w", err)
			}
		}
		if err := checkPrecision(src.Precision); err != nil {
			return nil, err
		}
		return func(opts RunOpts, stepFanout int) (ChunkFunc, error) {
			// The run-wide overrides go on top of the declared settings.
			genOpts := declared
			if err := opts.override(&genOpts); err != nil {
				return nil, err
			}
			genOpts.BatchSize = opts.decodeBatch()
			// The scenario engine parallelizes across chunks; a chunk's
			// decode gets its worker's share of the cores.
			genOpts.Parallelism = stepFanout
			// Live decode telemetry: counters accumulate into the caller's
			// per-source sinks as each chunk finishes.
			if opts.SourceStats != nil {
				genOpts.Stats = opts.SourceStats(src.ID)
			}
			if opts.SourceStepHist != nil {
				genOpts.StepHist = opts.SourceStepHist(src.ID)
			}
			// RunOpts.LoadModel lets a daemon inject a caching loader so
			// the model file is read (and its inference snapshot frozen)
			// once across runs. A speculative draft is the loaded model's
			// self-fitted n-gram, fitted on the first chunk and cached on
			// the model.
			load := opts.LoadModel
			if load == nil {
				load = cptgpt.LoadFile
			}
			m, err := load(src.ModelFile)
			if err != nil {
				return nil, err
			}
			return func(lo, hi int) ([]trace.Stream, error) {
				return m.GenerateRange(lo, hi, genOpts)
			}, nil
		}, nil
	case "custom":
		// Bound through RunOpts.Sources; a run that reaches the binder
		// brought no binding.
		return func(RunOpts, int) (ChunkFunc, error) {
			return nil, errors.New("kind custom but no RunOpts.Sources binding")
		}, nil
	default:
		return nil, fmt.Errorf("unknown kind %q", src.Kind)
	}
}

// checkPrecision checks a cptgpt source's precision field. Decoding is
// float32 only, so the field accepts nothing else; it remains because
// existing specs (the benchmark harness's among them) name "f32". A spec
// asking for the removed float64 decode fails with that reason.
func checkPrecision(p string) error {
	switch strings.ToLower(p) {
	case "", "f32", "float32":
		return nil
	case "f64", "float64":
		return fmt.Errorf("precision %q: the float64 decode was removed; cptgpt sources decode in float32 (drop the field)", p)
	}
	return fmt.Errorf("unknown precision %q (the only one is f32)", p)
}

// override applies the run-wide decode overrides (Speculative, DraftTokens)
// to a cptgpt source's declared settings. It is the one place the overrides
// are parsed; Validate is override with the result dropped.
func (o RunOpts) override(g *cptgpt.GenOpts) error {
	switch o.Speculative {
	case "":
	case "on":
		g.Speculative = true
	case "off":
		g.Speculative = false
	default:
		return fmt.Errorf("unknown speculative override %q (want on, off or empty)", o.Speculative)
	}
	if o.DraftTokens < 0 {
		return fmt.Errorf("draft-tokens override must be ≥ 0, got %d", o.DraftTokens)
	}
	if o.DraftTokens > 0 {
		g.DraftTokens = o.DraftTokens
	}
	return nil
}

// Validate checks the run-wide decode overrides, the only RunOpts fields
// with values a run refuses rather than clamps. OpenContext calls it;
// cptscenario and the daemon call it before any other work, so a typo fails
// even where no cptgpt source would consult it.
func (o RunOpts) Validate() error {
	if err := o.override(new(cptgpt.GenOpts)); err != nil {
		return fmt.Errorf("scenario: run options: %w", err)
	}
	return nil
}

// syntheticConfig builds the ground-truth generator configuration for a
// synthetic source: the device mix apportioned over the source's UE count,
// the horizon rounded up to whole hours (the engine clips at the exact
// horizon), and the source's own seed.
func syntheticConfig(spec *Spec, src *SourceSpec, gen events.Generation, seed uint64, n int) (synthetic.Config, error) {
	mix := src.DeviceMix
	if len(mix) == 0 {
		mix = defaultDeviceMix
	}
	var sum float64
	for name, w := range mix {
		if _, err := events.ParseDeviceType(name); err != nil {
			return synthetic.Config{}, fmt.Errorf("device_mix: %w", err)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return synthetic.Config{}, fmt.Errorf("device_mix[%q] must be a finite weight ≥ 0, got %v", name, w)
		}
		sum += w
	}
	if sum <= 0 {
		return synthetic.Config{}, errors.New("device_mix weights sum to zero")
	}
	devs := events.DeviceTypes()
	weights := make([]float64, len(devs))
	for i, dev := range devs {
		weights[i] = mix[dev.String()]
	}
	counts := apportion(weights, n)
	ues := make(map[events.DeviceType]int, len(devs))
	for i, dev := range devs {
		ues[dev] = counts[i]
	}
	cfg := synthetic.Config{
		Generation: gen,
		Seed:       seed,
		UEs:        ues,
		Hours:      int(math.Ceil(spec.HorizonSec / 3600)),
		StartHour:  src.StartHour,
	}
	if cfg.Hours < 1 {
		cfg.Hours = 1
	}
	if err := cfg.Validate(); err != nil {
		return synthetic.Config{}, err
	}
	return cfg, nil
}
