package scenario

import (
	"fmt"
	"math"
	"sort"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/telemetry"
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
func resolveSources(spec *Spec, opts RunOpts, total int) ([]boundSource, error) {
	gen, err := spec.gen()
	if err != nil {
		return nil, err
	}
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
		switch src.Kind {
		case "", "synthetic":
			cfg, err := syntheticConfig(spec, src, gen, sourceSeed(spec, i), b.n)
			if err != nil {
				return nil, err
			}
			b.chunk = func(lo, hi int) ([]trace.Stream, error) {
				return synthetic.GenerateRange(cfg, lo, hi)
			}
		case "cptgpt":
			// RunOpts.LoadModel lets a daemon inject a caching loader so
			// the model file is read (and its inference snapshot frozen)
			// once across runs.
			load := opts.LoadModel
			if load == nil {
				load = cptgpt.LoadFile
			}
			m, err := load(src.ModelFile)
			if err != nil {
				return nil, fmt.Errorf("scenario: source %q: %w", src.ID, err)
			}
			dev := events.Phone
			if src.Device != "" {
				if dev, err = events.ParseDeviceType(src.Device); err != nil {
					return nil, fmt.Errorf("scenario: source %q: %w", src.ID, err)
				}
			}
			// Decode precision: the source's declared setting, overridden
			// run-wide by RunOpts.Precision (how a spec written for the
			// bit-exact path scales up through the f32 fast path without
			// editing the file).
			precSpec := src.Precision
			if opts.Precision != "" {
				precSpec = opts.Precision
			}
			prec, err := cptgpt.ParsePrecision(precSpec)
			if err != nil {
				return nil, fmt.Errorf("scenario: source %q: %w", src.ID, err)
			}
			// Speculative decoding: the source's declared setting, with the
			// run-wide override on top (same pattern as precision). The
			// draft is the loaded model's self-fitted n-gram — fitted once
			// on the first chunk, cached on the model for the rest.
			speculative := src.Speculative
			switch opts.Speculative {
			case "":
			case "on":
				speculative = true
			case "off":
				speculative = false
			default:
				return nil, fmt.Errorf("scenario: source %q: unknown speculative override %q (want on, off or empty)", src.ID, opts.Speculative)
			}
			draftK := src.DraftTokens
			if opts.DraftTokens > 0 {
				draftK = opts.DraftTokens
			}
			// Live decode telemetry: counters accumulate into the caller's
			// per-source DecodeStats as each chunk finishes.
			var stats *cptgpt.DecodeStats
			if opts.SourceStats != nil {
				stats = opts.SourceStats(src.ID)
			}
			var stepHist *telemetry.Histogram
			if opts.SourceStepHist != nil {
				stepHist = opts.SourceStepHist(src.ID)
			}
			genOpts := cptgpt.GenOpts{
				Device:      dev,
				Seed:        sourceSeed(spec, i),
				Temperature: src.Temperature,
				Precision:   prec,
				BatchSize:   opts.decodeBatch(),
				Speculative: speculative,
				DraftTokens: draftK,
				Stats:       stats,
				StepHist:    stepHist,
				// Spread stream starts over the horizon; ramp ops can
				// re-stage populations on top of this.
				StartWindow: spec.HorizonSec,
				// The scenario engine parallelizes across chunks; a chunk's
				// decode gets its worker's share of the cores.
				Parallelism: stepFanout,
			}
			b.chunk = func(lo, hi int) ([]trace.Stream, error) {
				return m.GenerateRange(lo, hi, genOpts)
			}
		case "custom":
			return nil, fmt.Errorf("scenario: source %q has kind custom but no RunOpts.Sources binding", src.ID)
		default:
			return nil, fmt.Errorf("scenario: source %q: unknown kind %q", src.ID, src.Kind)
		}
	}
	return bound, nil
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
		return synthetic.Config{}, fmt.Errorf("scenario: source %q: %w", src.ID, err)
	}
	return cfg, nil
}
