// Package smm implements the prior-art Semi-Markov-Model traffic generator
// the paper uses as its domain-knowledge baseline (§3.3): transition
// probabilities and per-transition empirical sojourn-time CDFs fit over the
// two-level hierarchical UE state machine, in two variants —
//
//   - SMM-1: a single model per device type (Config.K = 1), and
//   - SMM-K: the paper's "SMM-20k" construction, which first clusters UEs
//     by stream features (flow length, interarrival scale and variability,
//     handover share) with k-means and fits one model per cluster. K scales
//     with the trace instead of the paper's 20,216 instances.
//
// Because the SMM samples only transitions that the state machine permits,
// it produces zero semantic violations by construction — which is exactly
// how the paper reports it (Table 5 omits SMM rows).
package smm

import (
	"fmt"
	"math"

	"cptgpt/internal/events"
	"cptgpt/internal/statemachine"
	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// Config parameterizes SMM fitting.
type Config struct {
	// K is the number of UE clusters; 1 yields the SMM-1 baseline.
	K int
	// Horizon is the generation window in seconds (an hour slice: 3600).
	Horizon float64
	// Seed fixes clustering and sampling randomness.
	Seed uint64
}

// DefaultConfig returns an SMM-1 configuration over a one-hour horizon.
func DefaultConfig() Config { return Config{K: 1, Horizon: 3600, Seed: 17} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("smm: K must be ≥ 1, got %d", c.K)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("smm: Horizon must be positive, got %v", c.Horizon)
	}
	return nil
}

// initChoice is one observed (first event, post-event state) bootstrap pair.
type initChoice struct {
	event events.Type
	state statemachine.State
}

// clusterModel is one fitted semi-Markov model.
type clusterModel struct {
	weight float64
	// init samples the stream's bootstrap (event, state) pair.
	init        *stats.Categorical
	initChoices []initChoice
	// trans[state] samples the next event among the valid events observed
	// in that state.
	trans map[statemachine.State]*stats.Categorical
	// transChoices[state] aligns with trans[state]'s categories.
	transChoices map[statemachine.State][]events.Type
	// sojourn[state→event] is the empirical CDF of the time spent in state
	// before leaving via event (the paper's "one CDF model per transition").
	sojourn map[statemachine.StateEvent]*stats.EmpiricalSampler
}

// Model is a fitted SMM generator (one or many clusters).
type Model struct {
	Gen      events.Generation
	Cfg      Config
	clusters []clusterModel
}

// K returns the number of non-empty fitted clusters.
func (m *Model) K() int { return len(m.clusters) }

// NumCDFs returns the total number of per-transition sojourn CDFs across
// clusters (the paper quotes 283,024 for its full SMM-20k ensemble).
func (m *Model) NumCDFs() int {
	var n int
	for i := range m.clusters {
		n += len(m.clusters[i].sojourn)
	}
	return n
}

// Fit estimates an SMM (or a cluster ensemble for K > 1) from the dataset.
func Fit(d *trace.Dataset, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(d.Streams) == 0 {
		return nil, fmt.Errorf("smm: empty dataset")
	}
	m := &Model{Gen: d.Generation, Cfg: cfg}
	machine := statemachine.New(d.Generation)

	groups := [][]int{}
	if cfg.K == 1 {
		idx := make([]int, len(d.Streams))
		for i := range idx {
			idx[i] = i
		}
		groups = append(groups, idx)
	} else {
		feats := make([][]float64, len(d.Streams))
		for i := range d.Streams {
			feats[i] = streamFeatures(&d.Streams[i], d.Generation)
		}
		rng := stats.NewRand(cfg.Seed)
		km := stats.KMeans(feats, cfg.K, 50, rng)
		byCluster := make(map[int][]int)
		for i, c := range km.Assignment {
			byCluster[c] = append(byCluster[c], i)
		}
		for c := 0; c < cfg.K; c++ {
			if len(byCluster[c]) > 0 {
				groups = append(groups, byCluster[c])
			}
		}
	}

	total := float64(len(d.Streams))
	for _, g := range groups {
		cm, err := fitCluster(d, g, machine)
		if err != nil {
			return nil, err
		}
		if cm == nil {
			continue // no usable streams in this cluster
		}
		cm.weight = float64(len(g)) / total
		m.clusters = append(m.clusters, *cm)
	}
	if len(m.clusters) == 0 {
		return nil, fmt.Errorf("smm: no cluster produced a usable model (all streams too short or unbootstrappable)")
	}
	return m, nil
}

// streamFeatures extracts the clustering features the prior art uses: flow
// length, interarrival scale and variability, and handover share.
func streamFeatures(s *trace.Stream, gen events.Generation) []float64 {
	ia := s.Interarrivals()
	var body []float64
	if len(ia) > 1 {
		body = ia[1:]
	}
	mean := stats.Mean(body)
	sd := stats.StdDev(body)
	var ho float64
	if n := len(s.Events); n > 0 {
		ho = float64(s.CountType(events.Handover)) / float64(n)
	}
	return []float64{
		math.Log1p(float64(len(s.Events))),
		math.Log1p(mean),
		math.Log1p(sd),
		ho,
	}
}

// fitCluster estimates one semi-Markov model from the streams indexed by g.
// It returns nil (no error) when the cluster has no usable streams.
func fitCluster(d *trace.Dataset, g []int, machine statemachine.Machine) (*clusterModel, error) {
	type seKey = statemachine.StateEvent
	transCount := make(map[statemachine.State]map[events.Type]float64)
	sojournObs := make(map[seKey][]float64)
	initCount := make(map[initChoice]float64)

	for _, si := range g {
		s := &d.Streams[si]
		evs := s.Types()
		ts := s.Times()
		if len(evs) < 1 {
			continue
		}
		// Walk the stream the same way the replay does, recording valid
		// transitions and the sojourn preceding each.
		start := -1
		var state statemachine.State
		for i, e := range evs {
			if st, ok := machine.Bootstrap(e); ok {
				state = st
				start = i
				break
			}
		}
		if start < 0 {
			continue
		}
		initCount[initChoice{event: evs[start], state: state}]++
		prevT := ts[start]
		for i := start + 1; i < len(evs); i++ {
			next, ok := machine.Step(state, evs[i])
			if !ok {
				continue // skip violating events when fitting
			}
			if transCount[state] == nil {
				transCount[state] = make(map[events.Type]float64)
			}
			transCount[state][evs[i]]++
			key := seKey{State: state, Event: evs[i]}
			sojournObs[key] = append(sojournObs[key], ts[i]-prevT)
			prevT = ts[i]
			state = next
		}
	}
	if len(initCount) == 0 {
		return nil, nil
	}

	cm := &clusterModel{
		trans:        make(map[statemachine.State]*stats.Categorical),
		transChoices: make(map[statemachine.State][]events.Type),
		sojourn:      make(map[seKey]*stats.EmpiricalSampler),
	}
	// Initial distribution, in deterministic order.
	vocab := events.Vocabulary(d.Generation)
	var initW []float64
	for _, e := range vocab {
		for _, st := range []statemachine.State{statemachine.Deregistered, statemachine.SrvReqS, statemachine.HoS} {
			c := initChoice{event: e, state: st}
			if w := initCount[c]; w > 0 {
				cm.initChoices = append(cm.initChoices, c)
				initW = append(initW, w)
			}
		}
	}
	cat, err := stats.NewCategorical(initW)
	if err != nil {
		return nil, fmt.Errorf("smm: initial distribution: %w", err)
	}
	cm.init = cat

	for state, counts := range transCount {
		var choices []events.Type
		var ws []float64
		for _, e := range vocab { // vocabulary order for determinism
			if w := counts[e]; w > 0 {
				choices = append(choices, e)
				ws = append(ws, w)
			}
		}
		cat, err := stats.NewCategorical(ws)
		if err != nil {
			return nil, fmt.Errorf("smm: transition distribution for %s: %w", state, err)
		}
		cm.trans[state] = cat
		cm.transChoices[state] = choices
	}
	for key, obs := range sojournObs {
		cm.sojourn[key] = stats.NewEmpiricalSampler(obs)
	}
	return cm, nil
}

// GenOpts parameterizes SMM trace synthesis.
type GenOpts struct {
	// NumStreams is the UE population to synthesize.
	NumStreams int
	// Device labels the generated streams.
	Device events.DeviceType
	// Seed fixes sampling randomness.
	Seed uint64
	// Parallelism bounds cross-stream sampling concurrency; 0 means the
	// tensor-layer default (GOMAXPROCS, or tensor.SetParallelism's value).
	// Every stream draws from its own index-seeded RNG, so output is
	// identical at every setting.
	Parallelism int
	// StartWindow, when positive, offsets each stream's start uniformly in
	// [0, StartWindow) seconds (see cptgpt.GenOpts.StartWindow).
	StartWindow float64
}

// Generate synthesizes a dataset: each stream picks a cluster by weight,
// draws a bootstrap (event, state) pair, then alternates event and sojourn
// sampling until the horizon is exceeded. Only machine-valid transitions
// exist in the fitted tables, so the output has zero semantic violations by
// construction. Streams fan out across Parallelism workers; output is
// deterministic for a fixed Seed regardless of the worker count.
func (m *Model) Generate(opts GenOpts) (*trace.Dataset, error) {
	if opts.NumStreams <= 0 {
		return nil, fmt.Errorf("smm: NumStreams must be positive, got %d", opts.NumStreams)
	}
	streams, err := m.GenerateRange(0, opts.NumStreams, opts)
	if err != nil {
		return nil, err
	}
	return &trace.Dataset{Generation: m.Gen, Streams: streams}, nil
}

// GenerateRange synthesizes the streams with global indices [lo, hi) of
// the population Generate would produce for the same opts: the returned
// slice equals Generate(opts).Streams[lo:hi] bit-for-bit whenever
// opts.NumStreams ≥ hi. Every stream draws only from its own index-seeded
// RNG, so chunked emission over any partition of the index space
// reconstructs one full run — the scenario engine's streaming sources rely
// on this.
func (m *Model) GenerateRange(lo, hi int, opts GenOpts) ([]trace.Stream, error) {
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("smm: invalid stream range [%d,%d)", lo, hi)
	}
	weights := make([]float64, len(m.clusters))
	for i := range m.clusters {
		weights[i] = m.clusters[i].weight
	}
	pick, err := stats.NewCategorical(weights)
	if err != nil {
		return nil, fmt.Errorf("smm: cluster weights: %w", err)
	}
	machine := statemachine.New(m.Gen)
	p := opts.Parallelism
	if p <= 0 {
		p = tensor.Parallelism()
	}
	streams := make([]trace.Stream, hi-lo)
	tensor.ParallelForN(p, hi-lo, sampleWorkPerStream, func(jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			streams[j] = m.sampleStream(lo+j, opts, pick, machine)
		}
	})
	return streams, nil
}

// sampleWorkPerStream is the rough cost of sampling one stream in the
// worker pool's work units (a few dozen categorical and sojourn draws), so
// ranges of a handful of streams already shard.
const sampleWorkPerStream = 1 << 13

// sampleStream draws one semi-Markov stream with its own index-seeded RNG.
func (m *Model) sampleStream(i int, opts GenOpts, pick *stats.Categorical, machine statemachine.Machine) trace.Stream {
	rng := stats.NewRand(m.Cfg.Seed ^ opts.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
	c := &m.clusters[pick.Sample(rng)]
	s := trace.Stream{
		UEID:   fmt.Sprintf("smm-%s-%06d", opts.Device, i),
		Device: opts.Device,
	}
	ic := c.initChoices[c.init.Sample(rng)]
	t := 0.0
	if opts.StartWindow > 0 {
		t = rng.Float64() * opts.StartWindow
	}
	s.Events = append(s.Events, trace.Event{Time: t, Type: ic.event})
	state := ic.state
	for {
		cat := c.trans[state]
		if cat == nil {
			break // absorbing in the fitted data
		}
		choices := c.transChoices[state]
		e := choices[cat.Sample(rng)]
		soj := c.sojourn[statemachine.StateEvent{State: state, Event: e}]
		var dt float64
		if soj != nil {
			dt = math.Max(soj.Sample(rng), 0)
		}
		t += dt
		if t >= m.Cfg.Horizon {
			break
		}
		s.Events = append(s.Events, trace.Event{Time: t, Type: e})
		next, ok := machine.Step(state, e)
		if !ok {
			// Unreachable: fitted tables contain only valid transitions.
			break
		}
		state = next
	}
	return s
}
