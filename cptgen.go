// Package cptgen is the public API of the CPT-GPT reproduction: a toolkit
// for generating, modeling and evaluating cellular network control-plane
// traffic (CPT) without domain knowledge, after "High-Fidelity Cellular
// Network Control-Plane Traffic Generation without Domain Knowledge"
// (IMC 2024).
//
// The toolkit has four moving parts:
//
//   - Ground truth: GenerateGroundTruth synthesizes a realistic carrier-style
//     workload (the stand-in for the paper's proprietary trace).
//   - Generators: TrainCPTGPT (the paper's transformer), TrainNetShare (the
//     GAN/LSTM baseline) and FitSMM (the semi-Markov baseline) learn a
//     workload and synthesize arbitrary numbers of new UE streams.
//   - Fidelity: Evaluate computes the paper's fidelity metrics (semantic
//     violations, sojourn times, flow lengths, event breakdown) and
//     Memorization audits training-data leakage.
//   - Consumers: SimulateMCN runs a simulated mobile-core control-plane
//     function over a trace; the replay sub-API drives a TCP server with
//     paced traffic.
//
// Examples under examples/ exercise exactly this surface.
package cptgen

import (
	"net"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/faultnet"
	"cptgpt/internal/mcn"
	"cptgpt/internal/metrics"
	"cptgpt/internal/netshare"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/scenario"
	"cptgpt/internal/smm"
	"cptgpt/internal/statemachine"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// Parallel execution. Every generator fans stream synthesis out across a
// worker pool, and the tensor kernels shard across the same pool; output is
// bit-identical at every parallelism degree because each stream draws only
// from its own index-seeded RNG. A CPT-GPT decode call treats its Parallelism
// as one core budget: decoder goroutines × the shards each splits a decode
// step into never exceed it. Training is batched too: each CPT-GPT
// optimizer step is one packed forward over CPTGPTConfig.AccumStreams
// streams (block-diagonal causal attention over one concatenated matrix),
// its tape run out of a per-step bump arena — trained weights are
// bit-identical at every parallelism degree. Generation knobs live on the
// option structs (CPTGPTGenOpts/NetShareGenOpts/SMMGenOpts .Parallelism and
// .BatchSize); training has none, and runs its kernels at the
// process-global degree SetParallelism sets, which is also the default the
// generators use when theirs are zero.

// SetParallelism sets the process-global parallelism degree for tensor
// kernels and stream generation (0 restores the GOMAXPROCS default). It
// returns the previous setting so callers can scope an override.
func SetParallelism(n int) (prev int) { return tensor.SetParallelism(n) }

// Parallelism reports the effective process-global parallelism degree.
func Parallelism() int { return tensor.Parallelism() }

// DefaultBatchSize is the number of decode slots per CPT-GPT BatchDecoder
// when CPTGPTGenOpts.BatchSize is unset.
const DefaultBatchSize = cptgpt.DefaultBatchSize

// Decode arithmetic. CPT-GPT trains in float64 and decodes in float32: a
// frozen float32 snapshot of the trained weights with fused row kernels and
// a contiguous float32 KV arena. Output is deterministic per Seed and kernel
// set (AVX2 or portable) at every Parallelism and BatchSize. Decoding uses
// continuous batching: the moment a stream emits STOP, its decoder slot is
// refilled with the next pending UE, so slots stay hot under skewed
// stream-length distributions.

// Speculative decoding. Setting CPTGPTGenOpts.Speculative has the model's
// self-fitted draft — a smoothed bigram fitted once on the model's own
// output (CPTGPTModel.SelfDraft) and cached — propose
// CPTGPTGenOpts.DraftTokens tokens per UE slot and the transformer verify
// the whole chain in ONE multi-token pass (the same row-packed GEMM body
// plain decoding runs, k rows per slot); acceptance–rejection sampling then
// keeps a prefix and resamples the first rejected position from the
// residual distribution, so the output law is exactly plain sampling's —
// the draft moves only the acceptance rate. Output stays deterministic per
// Seed at every Parallelism × BatchSize on one machine (the draft is fitted
// by decoding, so its bits follow the machine's kernel set). A verified
// row costs what a plain token costs, so it beats plain decoding only
// with a draft that gets most of its chain accepted; see the README's
// "Speculative decoding" section for the knobs, the measured numbers and
// the intuition.

// CPTGPTDecodeStats carries decode telemetry (scheduling steps and
// speculative proposed/accepted counters) when CPTGPTGenOpts.Stats is set.
type CPTGPTDecodeStats = cptgpt.DecodeStats

// DefaultDraftTokens is the speculation depth when
// CPTGPTGenOpts.DraftTokens is unset.
const DefaultDraftTokens = cptgpt.DefaultDraftTokens

// Core data model.
type (
	// Dataset is a control-plane traffic dataset: one stream per UE.
	Dataset = trace.Dataset
	// Stream is one UE's time-ordered control-event sequence.
	Stream = trace.Stream
	// Event is a single (timestamp, event type) sample.
	Event = trace.Event
	// EventType identifies a 3GPP control-plane event (SRV_REQ, HO, …).
	EventType = events.Type
	// DeviceType classifies a UE (phone, connected car, tablet).
	DeviceType = events.DeviceType
	// Generation selects 4G or 5G semantics.
	Generation = events.Generation
)

// Re-exported enumeration values.
const (
	Gen4G = events.Gen4G
	Gen5G = events.Gen5G

	Phone        = events.Phone
	ConnectedCar = events.ConnectedCar
	Tablet       = events.Tablet
)

// Ground-truth workload generation.
type (
	// GroundTruthConfig parameterizes the synthetic carrier workload.
	GroundTruthConfig = synthetic.Config
)

// GenerateGroundTruth synthesizes a carrier-style control-plane workload:
// per-UE behavioural simulation over the 3GPP state machine with latent
// heterogeneity and diurnal drift. This substitutes for the paper's
// proprietary trace (docs/ARCHITECTURE.md, "What stands in for the paper's
// substrate").
func GenerateGroundTruth(cfg GroundTruthConfig) (*Dataset, error) {
	return synthetic.Generate(cfg)
}

// DefaultGroundTruthConfig returns a small 4G workload configuration.
func DefaultGroundTruthConfig() GroundTruthConfig { return synthetic.DefaultConfig() }

// CPT-GPT, the paper's transformer-based generator.
type (
	// CPTGPTConfig holds the transformer's hyperparameters.
	CPTGPTConfig = cptgpt.Config
	// CPTGPTModel is a trained CPT-GPT generator.
	CPTGPTModel = cptgpt.Model
	// CPTGPTTrainOpts tunes a training run.
	CPTGPTTrainOpts = cptgpt.TrainOpts
	// CPTGPTGenOpts tunes trace synthesis.
	CPTGPTGenOpts = cptgpt.GenOpts
)

// DefaultCPTGPTConfig returns a CPU-sized CPT-GPT configuration.
func DefaultCPTGPTConfig() CPTGPTConfig { return cptgpt.DefaultConfig() }

// TrainCPTGPT fits a CPT-GPT model on the dataset from scratch: it fits the
// multi-modal tokenizer, extracts the initial-event distribution and trains
// the decoder-only transformer with next-token supervision.
func TrainCPTGPT(d *Dataset, cfg CPTGPTConfig, opts CPTGPTTrainOpts) (*CPTGPTModel, error) {
	tok := cptgpt.FitTokenizer(d)
	m, err := cptgpt.NewModel(cfg, tok)
	if err != nil {
		return nil, err
	}
	if _, err := cptgpt.Train(m, d, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// FineTuneCPTGPT adapts a trained model to a drifted dataset (Design 3):
// a cheap warm-start alternative to retraining from scratch.
func FineTuneCPTGPT(m *CPTGPTModel, d *Dataset, opts CPTGPTTrainOpts) (*CPTGPTModel, error) {
	c, err := m.Clone()
	if err != nil {
		return nil, err
	}
	if _, err := cptgpt.FineTune(c, d, opts); err != nil {
		return nil, err
	}
	return c, nil
}

// LoadCPTGPT reads a model saved with (*CPTGPTModel).SaveFile.
func LoadCPTGPT(path string) (*CPTGPTModel, error) { return cptgpt.LoadFile(path) }

// NetShare baseline.
type (
	// NetShareConfig holds the GAN/LSTM baseline's hyperparameters.
	NetShareConfig = netshare.Config
	// NetShareModel is a trained NetShare generator.
	NetShareModel = netshare.Model
	// NetShareTrainOpts tunes GAN training.
	NetShareTrainOpts = netshare.TrainOpts
	// NetShareGenOpts tunes trace synthesis.
	NetShareGenOpts = netshare.GenOpts
)

// DefaultNetShareConfig returns a CPU-sized NetShare configuration.
func DefaultNetShareConfig() NetShareConfig { return netshare.DefaultConfig() }

// TrainNetShare trains the GAN/LSTM baseline on the dataset.
func TrainNetShare(d *Dataset, cfg NetShareConfig, opts NetShareTrainOpts) (*NetShareModel, error) {
	m, err := netshare.New(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := netshare.Train(m, d, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// SMM baseline.
type (
	// SMMConfig holds the semi-Markov baseline's parameters (K=1 for
	// SMM-1, K>1 for the clustered variant).
	SMMConfig = smm.Config
	// SMMModel is a fitted semi-Markov generator.
	SMMModel = smm.Model
	// SMMGenOpts tunes trace synthesis.
	SMMGenOpts = smm.GenOpts
)

// DefaultSMMConfig returns the SMM-1 configuration.
func DefaultSMMConfig() SMMConfig { return smm.DefaultConfig() }

// FitSMM fits the semi-Markov baseline on the dataset.
func FitSMM(d *Dataset, cfg SMMConfig) (*SMMModel, error) { return smm.Fit(d, cfg) }

// Fidelity evaluation.
type (
	// Fidelity bundles the paper's fidelity metrics.
	Fidelity = metrics.Fidelity
	// MemorizationResult reports the n-gram repetition audit.
	MemorizationResult = metrics.MemorizationResult
	// ReplayAggregate is the state-machine tally of a replayed dataset:
	// violation counts, connected UEs and per-UE sojourn means.
	ReplayAggregate = statemachine.Tally
)

// Evaluate computes the full fidelity suite of synth against real.
func Evaluate(real, synth *Dataset) Fidelity { return metrics.Evaluate(real, synth) }

// ReplayStats replays a dataset against its generation's UE state machine.
func ReplayStats(d *Dataset) *ReplayAggregate { return metrics.Replay(d) }

// Memorization audits how many generated n-grams repeat training n-grams
// within relative interarrival tolerance eps (§5.6).
func Memorization(generated, training *Dataset, n int, eps float64) (MemorizationResult, error) {
	return metrics.Memorization(generated, training, n, eps)
}

// Trace IO.

// SaveTrace writes a dataset to path as event lines, the format the
// scenario file sinks write: csv under ".csv", jsonl otherwise, gzipped
// under a further ".gz".
func SaveTrace(path string, d *Dataset) error { return trace.SaveFile(path, d) }

// LoadTrace reads a dataset from path, grouping event lines by UE; gen is
// the trace's generation (a legacy cptgpt-trace/1 file names its own).
func LoadTrace(path string, gen Generation) (*Dataset, error) { return trace.LoadFile(path, gen) }

// Downstream consumers.
type (
	// MCNConfig parameterizes the simulated mobile-core NF.
	MCNConfig = mcn.Config
	// MCNReport is the simulation output (load, latency, autoscaling).
	MCNReport = mcn.Report
	// ReplayServer is the TCP MCN frontend.
	ReplayServer = replaynet.Server
	// ReplayStatsReport is the TCP server's accounting.
	ReplayStatsReport = replaynet.Stats
	// ReplayServerOpts tunes a TCP MCN frontend (service time, fault
	// injection).
	ReplayServerOpts = replaynet.ServerOpts
	// ReplayClosedOpts tunes a closed-loop (acknowledged, congestion-
	// controlled) replay run: the session to open or resume, the dialer,
	// and where live state and RTT samples go.
	ReplayClosedOpts = replaynet.ClosedOpts
	// ReplayClosedStats summarizes a closed-loop replay run.
	ReplayClosedStats = replaynet.ClosedStats
	// ReplayLiveStats publishes a running closed-loop replay's transport
	// state (cwnd, sRTT, RTO, in-flight, retransmits) as atomics.
	ReplayLiveStats = replaynet.LiveStats
	// ReplaySearchOpts tunes the SLO-search controller (objective, first
	// rate, window size).
	ReplaySearchOpts = replaynet.SearchOpts
	// ReplaySearchResult is the SLO search outcome.
	ReplaySearchResult = replaynet.SearchResult
	// FaultConfig is the deterministic fault-injection schedule applied to a
	// connection side (see internal/faultnet).
	FaultConfig = faultnet.Config
)

// DefaultMCNConfig returns the default simulated-MCN configuration.
func DefaultMCNConfig() MCNConfig { return mcn.DefaultConfig() }

// SimulateMCN runs the simulated mobile-core control-plane function over
// the dataset's merged arrival sequence (Dataset.Arrivals) in virtual time.
func SimulateMCN(d *Dataset, cfg MCNConfig) (*MCNReport, error) { return mcn.Run(d, cfg) }

// ListenMCN starts a TCP MCN frontend (see internal/replaynet's protocol).
func ListenMCN(addr string, gen Generation) (*ReplayServer, error) {
	return replaynet.ListenAndServe(addr, gen)
}

// ListenMCNOpts is ListenMCN with explicit server options: a per-event
// service time (rate limit) and deterministic fault injection on accepted
// connections.
func ListenMCNOpts(addr string, gen Generation, opts ReplayServerOpts) (*ReplayServer, error) {
	return replaynet.ListenAndServeOpts(addr, gen, opts)
}

// FaultDialer returns a dial function injecting cfg's deterministic fault
// schedule into every dialed connection — plug it into
// ReplayClosedOpts.Dial to exercise a driver's robustness paths.
func FaultDialer(cfg FaultConfig) func(addr string) (net.Conn, error) {
	return faultnet.Dialer(cfg)
}

// ReplayOverTCP writes a dataset's merged arrival sequence
// (Dataset.Arrivals) onto a replaynet server as fast as the connection
// allows — unpaced — and returns the server's final stats. The paced
// networked path is a scenario run with compression: cptscenario
// -compression, or POST /runs "compression" on cptserved.
func ReplayOverTCP(addr string, d *Dataset) (ReplayStatsReport, error) {
	return replaynet.Replay(addr, d)
}

// Scenario engine: declarative workload composition over a streaming
// million-UE pipeline. A ScenarioSpec (plain JSON; built-ins via
// BuiltinScenario) names traffic sources — synthetic ground truth, trained
// CPT-GPT models, or any generator bound through ScenarioRunOpts.Sources —
// and composes operators (population ramps, event amplification, time
// compression, thinning, clipping) over time windows. OpenScenario executes
// it as a bounded-memory pipeline: sources emit UE streams in chunks,
// chunks spill as sorted runs, and a capped-fan-in merge yields a globally
// time-ordered event iterator whose peak memory is independent of the UE
// count. Output is bit-identical at every Parallelism × BatchSize.
type (
	// ScenarioSpec is a declarative scenario (sources + windowed operators).
	ScenarioSpec = scenario.Spec
	// ScenarioSource names one traffic source of a spec.
	ScenarioSource = scenario.SourceSpec
	// ScenarioOp is one composable operator over a time window.
	ScenarioOp = scenario.OpSpec
	// ScenarioRunOpts tunes scenario execution (population, parallelism,
	// chunking, spill dir, custom source bindings).
	ScenarioRunOpts = scenario.RunOpts
	// ScenarioStream is the merged, time-ordered scenario event iterator.
	ScenarioStream = scenario.Stream
	// ScenarioEvent is one element of the merged sequence.
	ScenarioEvent = scenario.Event
	// ScenarioSummary aggregates a drained scenario in O(1) memory.
	ScenarioSummary = scenario.Summary
	// ScenarioChunkFunc plugs any chunked generator in as a source.
	ScenarioChunkFunc = scenario.ChunkFunc
)

// BuiltinScenarios lists the registered scenario presets (flash-crowd,
// handover-storm, paging-storm, iot-burst, failure-recovery-wave,
// mix-shift, baseline-diurnal).
func BuiltinScenarios() []string { return scenario.Builtins() }

// BuiltinScenario returns a fresh copy of a registered scenario preset.
func BuiltinScenario(name string) (*ScenarioSpec, error) { return scenario.Builtin(name) }

// LoadScenario reads and validates a scenario spec from a JSON file.
func LoadScenario(path string) (*ScenarioSpec, error) { return scenario.Load(path) }

// OpenScenario executes the scenario's generation phase and returns its
// streaming event iterator; the caller must Close it.
func OpenScenario(spec *ScenarioSpec, opts ScenarioRunOpts) (*ScenarioStream, error) {
	return spec.Open(opts)
}

// RunScenario executes the scenario end-to-end and drains it, returning
// the O(1)-memory summary (events, per-type breakdown, peak window rate).
func RunScenario(spec *ScenarioSpec, opts ScenarioRunOpts) (ScenarioSummary, error) {
	st, err := spec.Open(opts)
	if err != nil {
		return ScenarioSummary{}, err
	}
	defer st.Close()
	return scenario.Drain(st)
}

// RunScenarioMCN executes the scenario and drives the simulated mobile-core
// control-plane function with it — the paper's downstream use case at
// scenario scale.
func RunScenarioMCN(spec *ScenarioSpec, opts ScenarioRunOpts, cfg MCNConfig) (*MCNReport, error) {
	st, err := spec.Open(opts)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return scenario.RunMCN(st, cfg)
}
