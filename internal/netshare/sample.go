package netshare

import (
	"fmt"
	"math"

	"cptgpt/internal/events"
	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// GenOpts parameterizes NetShare trace synthesis.
type GenOpts struct {
	// NumStreams is the UE population to synthesize.
	NumStreams int
	// Device labels the generated streams.
	Device events.DeviceType
	// Seed fixes sampling randomness.
	Seed uint64
	// Parallelism bounds sampling concurrency; 0 means the tensor-layer
	// default (GOMAXPROCS, or tensor.SetParallelism's value). Every stream
	// draws from its own index-seeded RNG, so output is identical at every
	// setting.
	Parallelism int
	// StartWindow, when positive, offsets each stream's start uniformly in
	// [0, StartWindow) seconds (see cptgpt.GenOpts.StartWindow).
	StartWindow float64
}

// Generate synthesizes a dataset by running the trained generator on fresh
// noise, one invocation per UE. Following NetShare's inference procedure,
// categorical fields take the highest-probability value ("simply choosing
// the element with the highest possibility") and the numeric interarrival
// is the generator's deterministic scalar output — variety comes only from
// the noise input, which is the root of the paper's L2 observation. UE IDs
// come from a random string generator since the metadata generator was
// discarded (§4.2.1).
func (m *Model) Generate(opts GenOpts) (*trace.Dataset, error) {
	if opts.NumStreams <= 0 {
		return nil, fmt.Errorf("netshare: NumStreams must be positive, got %d", opts.NumStreams)
	}
	p := opts.Parallelism
	if p <= 0 {
		p = tensor.Parallelism()
	}
	streams := make([]trace.Stream, opts.NumStreams)
	// One stream is a full generator pass over single-row tensors, which
	// the kernels never shard, so the fan-out is over streams only.
	tensor.ParallelForN(p, len(streams), sampleWorkPerStream, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			streams[i] = m.sampleStream(i, opts)
		}
	})
	return &trace.Dataset{Generation: m.Cfg.Generation, Streams: streams}, nil
}

// sampleWorkPerStream is the rough cost of one generator pass in the worker
// pool's work units (Steps LSTM steps plus the heads): any two streams are
// worth sharding.
const sampleWorkPerStream = 1 << 18

// sampleStream decodes one stream from fresh noise.
func (m *Model) sampleStream(idx int, opts GenOpts) trace.Stream {
	cfg := m.Cfg
	rng := stats.NewRand(opts.Seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15)
	vocab := events.Vocabulary(cfg.Generation)
	v := len(vocab)
	fps := cfg.fieldsPerSample()

	noise, rz := m.sampleNoise(nil, 1, rng)
	data, rawMin, rawLogWidth := m.generateRaw(noise, rz)
	minLog, width := rangeFromRaw(rawMin, rawLogWidth)

	rng.Uint64() // the draw that once named the stream, kept so the times and events stay put
	s := trace.Stream{UEID: trace.UEID("netshare-", opts.Device, idx), Device: opts.Device}
	t := 0.0
	if opts.StartWindow > 0 {
		t = rng.Float64() * opts.StartWindow
	}
	for i := 0; i < cfg.MaxLen(); i++ {
		base := i * fps
		// Event: argmax over the softmaxed block.
		best, bestP := 0, math.Inf(-1)
		for j := 0; j < v; j++ {
			if data[base+j] > bestP {
				best, bestP = j, data[base+j]
			}
		}
		iaNorm := data[base+v]
		stop := data[base+v+1]
		if i > 0 {
			t += math.Expm1(math.Max(minLog+iaNorm*width, 0))
		}
		s.Events = append(s.Events, trace.Event{Time: t, Type: vocab[best]})
		// The stop field is the per-sample termination hazard; sample it,
		// matching the soft survival-mask semantics of training.
		if rng.Float64() < stop {
			break
		}
	}
	return s
}
