package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/scenario"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/trace"
)

// paperConfig is the paper's CPT-GPT shape (§4: 2 blocks, d_model 128, MLP
// 1024), the size whose cost the paper's §5.5 and Fig. 6 report.
func paperConfig(seed uint64) cptgpt.Config {
	cfg := cptgpt.DefaultConfig()
	cfg.DModel, cfg.Heads, cfg.Blocks = 128, 4, 2
	cfg.MLPHidden, cfg.HeadHidden, cfg.MaxLen = 1024, 64, 256
	cfg.Dropout = 0
	cfg.Seed = seed
	return cfg
}

// groundTruth synthesizes one hour of phone traffic, the training set.
func groundTruth(e *env, seed uint64, phones int) (*trace.Dataset, error) {
	var d *trace.Dataset
	_, err := e.spans.in(e.root, "synthetic.Generate", func(int) (err error) {
		d, err = synthetic.Generate(synthetic.Config{
			Generation: events.Gen4G,
			Seed:       seed,
			UEs:        map[events.DeviceType]int{events.Phone: phones},
			Hours:      1,
			StartHour:  10,
		})
		return err
	})
	return d, err
}

// trainEpoch trains the paper-scale model from scratch, one training run
// per round: the only workload where tensor autograd, nn and the packed
// trainer do all the work.
type trainEpoch struct {
	d      *trace.Dataset
	tokens int64 // Σ(len−1) over the streams Train accepts
	epochs int

	epochS    []float64
	finalLoss float64
}

const (
	trainEpochs = 2
	// trainLR is a third of the config's default. On a dozen streams even
	// that does not learn reliably (the interarrival head's loss can jump
	// by orders of magnitude between the two epochs), so a round's loss is
	// checked for being finite, not for falling; what is measured is the
	// cost of a training step, which does not depend on its outcome.
	trainLR = 1e-3
)

func (w *trainEpoch) setupRepeats() int { return 5 }
func (w *trainEpoch) teardown(*env)     {}

func (w *trainEpoch) setup(e *env) error {
	d, err := groundTruth(e, modelSeed, e.scaled(12, 4))
	if err != nil {
		return err
	}
	w.d, w.tokens, w.epochs = d, 0, trainEpochs
	maxLen := paperConfig(e.seed).MaxLen
	for i := range d.Streams {
		if n := len(d.Streams[i].Events); n >= 2 && n <= maxLen+1 {
			w.tokens += int64(n - 1)
		}
	}
	if w.tokens == 0 {
		return fmt.Errorf("no trainable streams in the ground truth")
	}
	// One epoch pays what a training process pays once: the worker pool,
	// the arena's first growth, the tape's code paths.
	m, err := cptgpt.NewModel(paperConfig(e.seed), cptgpt.FitTokenizer(d))
	if err != nil {
		return err
	}
	_, err = e.spans.in(e.root, "warmup", func(int) error {
		_, err := cptgpt.Train(m, d, cptgpt.TrainOpts{Epochs: 1})
		return err
	})
	return err
}

func (w *trainEpoch) round(e *env, traced bool) (roundOut, error) {
	var m *cptgpt.Model
	if _, err := e.spans.in(e.root, "cptgpt.NewModel", func(int) (err error) {
		m, err = cptgpt.NewModel(paperConfig(e.seed), cptgpt.FitTokenizer(w.d))
		return err
	}); err != nil {
		return roundOut{}, err
	}
	var res *cptgpt.TrainResult
	var epochS []float64
	_, err := e.spans.in(e.root, "cptgpt.Train", func(id int) (err error) {
		last := time.Now()
		sp := e.spans.begin(id, "cptgpt.Train.epoch")
		res, err = cptgpt.Train(m, w.d, cptgpt.TrainOpts{Epochs: w.epochs, LR: trainLR, OnEpoch: func(epoch int, _ float64) {
			e.spans.end(sp)
			epochS = append(epochS, time.Since(last).Seconds())
			last = time.Now()
			if epoch+1 < w.epochs {
				sp = e.spans.begin(id, "cptgpt.Train.epoch")
			}
		}})
		return err
	})
	if err != nil {
		return roundOut{}, err
	}
	final := res.FinalLoss()
	e.check("train.loss_finite", !math.IsNaN(final) && !math.IsInf(final, 0), "loss %v after epoch 1, %v after epoch %d", res.EpochLoss[0], final, res.Epochs)
	e.check("train.epochs_done", res.Epochs == w.epochs, "ran %d of %d epochs", res.Epochs, w.epochs)
	if traced {
		w.epochS = append(w.epochS, epochS...)
		w.finalLoss = final
	}
	var digest uint64
	for _, p := range m.Params() {
		for _, v := range p.Data {
			digest = mix(digest, math.Float64bits(v))
		}
	}
	return roundOut{events: w.tokens * int64(res.Epochs), digest: digest}, nil
}

func (w *trainEpoch) layers(e *env, traced int, m map[string]float64) {
	m["cptgpt.train.epoch_s_p50"] = median(w.epochS)
	m["cptgpt.train.final_loss"] = w.finalLoss
	m["cptgpt.tokens_per_s"] = float64(w.tokens) / median(w.epochS)
	// The trainer's dominant product: a packed microbatch of token rows
	// through the MLP up-projection.
	m["tensor.matmul_f64_gflops"] = probeMatMulF64(80, 128, 1024)
}

// gptDecode drives a trained paper-scale model as a scenario's only source
// and drains the result: decode-bound, the scenario pipeline and the sink
// are noise. speculative selects the draft-and-verify scheduler over the
// plain continuous one, the same layer used differently.
type gptDecode struct {
	speculative bool

	model     *cptgpt.Model
	spec      *scenario.Spec
	ues       int
	loadMs    float64
	draftMs   float64
	acc       scenarioAcc
	dec       cptgpt.DecodeStats
	stepHist  *telemetry.Histogram
	emitted   int64
	violation float64
	tracedS   float64
}

const (
	draftTokens = 4
	// gptChunk is RunOpts.BatchSize: the streams one worker decodes, sorts
	// and spills at a time, through a decoder of min(gptChunk, 32) slots.
	gptChunk = 64
)

func (w *gptDecode) setupRepeats() int { return 5 }

// modelSeed fixes the ground truth that train-epoch trains on and that the
// decode workloads' model was trained on. Both are part of the workload,
// like the builtin scenario of the synthetic ones: a dozen streams' lengths
// (and with them the cost of a token, the tape's size and the peak RSS)
// and a barely trained model's stream lengths swing with the seed, and that
// would be measured as noise. The run's seed drives the initialization and
// the shuffle order of train-epoch and what the decode workloads sample.
const modelSeed = 1

func (w *gptDecode) teardown(*env) {}

func (w *gptDecode) setup(e *env) error {
	path, err := trainedModel(e)
	if err != nil {
		return err
	}
	load, err := e.spans.in(e.root, "cptgpt.LoadFile", func(int) (err error) {
		if w.model, err = cptgpt.LoadFile(path); err == nil {
			w.model.Infer() // freeze the f32 snapshot the decoders share
		}
		return err
	})
	if err != nil {
		return err
	}
	w.loadMs = float64(load) / 1e6
	if w.speculative {
		fit, _ := e.spans.in(e.root, "cptgpt.Model.SelfDraft", func(int) error {
			w.model.SelfDraft()
			return nil
		})
		w.draftMs = float64(fit) / 1e6
	}
	// Whole chunks of gptChunk streams, the same number for each of two
	// workers.
	w.ues = e.scaled(2*gptChunk, gptChunk)
	if w.speculative {
		w.ues = e.scaled(4*gptChunk, gptChunk)
	}
	w.spec = &scenario.Spec{
		Name:       "cptbench-gpt",
		Generation: "4G",
		Seed:       e.seed,
		// Stream starts spread over the horizon, so at 1e8 s about one
		// stream in 30000 is clipped by it and the event count is what the
		// decoder emitted. (Drain meters 60 s windows across the horizon,
		// so it cannot be pushed out further for free.)
		HorizonSec: 1e8,
		Population: w.ues,
		Sources: []scenario.SourceSpec{{
			ID: "gpt", Kind: "cptgpt", ModelFile: path, Share: 1,
			Device: "phone", Precision: "f32",
		}},
	}
	return nil
}

// trainedModel returns the file of the decode workloads' model, training it
// first if this build of the benchmark has not yet: 100 phones for two
// epochs take 3 s and give every run the same model, so the file is kept
// beside the run's scratch directory (in .bench_build/) under a name tied
// to the executable, and the runs after the first load it as a scenario
// source meets a model — from disk.
func trainedModel(e *env) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	st, err := os.Stat(exe)
	if err != nil {
		return "", err
	}
	dir := filepath.Dir(e.tmp)
	path := filepath.Join(dir, fmt.Sprintf("model-%x-%x-%d.bin", st.ModTime().UnixNano(), st.Size(), e.scaled(100, 30)))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	// Below 30 phones the model hardly learns to stop and every stream
	// runs to MaxLen, which is another workload.
	d, err := groundTruth(e, modelSeed, e.scaled(100, 30))
	if err != nil {
		return "", err
	}
	m, err := cptgpt.NewModel(paperConfig(modelSeed), cptgpt.FitTokenizer(d))
	if err != nil {
		return "", err
	}
	if _, err := e.spans.in(e.root, "cptgpt.Train", func(int) error {
		_, err := cptgpt.Train(m, d, cptgpt.TrainOpts{Epochs: 2})
		return err
	}); err != nil {
		return "", err
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "model-*.bin"))
	for _, old := range stale {
		os.Remove(old)
	}
	tmp := filepath.Join(e.tmp, "model.bin")
	if err := m.SaveFile(tmp); err != nil {
		return "", err
	}
	return path, os.Rename(tmp, path)
}

func (w *gptDecode) round(e *env, traced bool) (roundOut, error) {
	var dec cptgpt.DecodeStats
	opts := scenario.RunOpts{
		UEs:         w.ues,
		BatchSize:   gptChunk,
		Speculative: "off",
		LoadModel:   func(string) (*cptgpt.Model, error) { return w.model, nil },
		SourceStats: func(string) *cptgpt.DecodeStats { return &dec },
	}
	if w.speculative {
		opts.Speculative, opts.DraftTokens = "on", draftTokens
	}
	if traced {
		if w.stepHist == nil {
			w.stepHist = telemetry.NewHistogram(telemetry.LatencyBuckets)
		}
		opts.SourceStepHist = func(string) *telemetry.Histogram { return w.stepHist }
	}
	t0 := time.Now()
	sm := newSMReplay(events.Gen4G)
	sum, tp, err := drainScenario(e, w.spec, opts, traced, sm, &w.acc)
	if err != nil {
		return roundOut{}, err
	}
	wall := time.Since(t0).Seconds()
	emitted := int64(sum.Events - w.ues) // every UE's first event is drawn, not decoded
	if w.speculative {
		e.check("gpt.draft_accepted", dec.DraftAccepted > 0, "%d of %d draft tokens accepted", dec.DraftAccepted, dec.DraftProposed)
		e.check("gpt.rows_cover_emitted", dec.SlotSteps >= emitted, "%d verify rows for %d emitted tokens", dec.SlotSteps, emitted)
	} else {
		// Equal unless a stream crossed the horizon; a scheduler that lost
		// or invented tokens would be off by far more than that.
		lost := dec.SlotSteps - emitted
		e.check("gpt.emitted_equals_slot_steps", lost >= 0 && lost*200 <= dec.SlotSteps, "events−UEs = %d, DecodeStats.SlotSteps = %d", emitted, dec.SlotSteps)
	}
	perUE := float64(sum.Events) / float64(w.ues)
	e.check("gpt.stream_length_sane", perUE > 2 && perUE < 200, "mean %.1f events per UE", perUE)
	if traced {
		w.dec.Steps += dec.Steps
		w.dec.SlotSteps += dec.SlotSteps
		w.dec.DraftProposed += dec.DraftProposed
		w.dec.DraftAccepted += dec.DraftAccepted
		w.emitted += emitted
		w.tracedS += wall
		w.violation = sm.violationRate()
	}
	return roundOut{events: int64(sum.Events), digest: mix(tp.digest, uint64(sm.violations))}, nil
}

func (w *gptDecode) layers(e *env, traced int, m map[string]float64) {
	n := float64(traced)
	w.acc.layers(traced, m)
	m["cptgpt.model_load_ms"] = w.loadMs
	m["cptgpt.draft_fit_ms"] = w.draftMs
	m["cptgpt.tokens_per_s"] = float64(w.emitted) / w.tracedS
	m["cptgpt.decode.steps"] = float64(w.dec.Steps) / n
	m["cptgpt.decode.slot_tokens"] = float64(w.dec.SlotSteps) / n
	rows := 1.0
	if w.speculative {
		rows = draftTokens + 1
	}
	batch := float64(scenario.RunOpts{BatchSize: gptChunk}.DecodeBatch())
	m["cptgpt.decode.slot_utilization"] = float64(w.dec.SlotSteps) / (float64(w.dec.Steps) * batch * rows)
	m["cptgpt.decode.step_busy_s"] = w.stepHist.Sum() / n
	m["cptgpt.decode.step_p50_ms"] = 1e3 * w.stepHist.Quantile(0.50)
	m["cptgpt.decode.step_p99_ms"] = 1e3 * w.stepHist.Quantile(0.99)
	if w.dec.DraftProposed > 0 {
		m["cptgpt.decode.draft_accept_share"] = float64(w.dec.DraftAccepted) / float64(w.dec.DraftProposed)
	}
	m["cptgpt.decode.emitted_per_slot_token"] = float64(w.emitted) / float64(w.dec.SlotSteps)
	m["statemachine.violation_rate"] = w.violation
	if w.speculative {
		m["tensor.gemm_f32_gflops"] = probeGemmF32(5*32, 128, 1024)
		m["tensor.gemm_f32_asm"] = probeGemmAsm()
		m["cptgpt.stepk_ns_per_token"] = probeStep(w.model, 16, 64, draftTokens)
	} else {
		m["tensor.matvec_group_f32_gflops"] = probeMatVecGroupF32(32, 128, 1024)
		m["cptgpt.step_ns_per_token"] = probeStep(w.model, 16, 64, 1)
	}
}

// synthCount drains the builtin flash-crowd scenario into the count sink:
// synthetic source, operators, sort/spill and a merge wider than the fan-in
// bound; no decode and a trivial sink.
type synthCount struct {
	spec *scenario.Spec
	ues  int
	acc  scenarioAcc
}

func (w *synthCount) setupRepeats() int { return 5 }
func (w *synthCount) teardown(*env)     {}

func (w *synthCount) setup(e *env) (err error) {
	if w.spec, err = flashCrowd(e.seed); err != nil {
		return err
	}
	w.ues = e.scaled(synthUEs, 200)
	// A first small run pays the lazy costs (worker pool, page cache of the
	// spill directory) a long-lived generator pays once.
	warm := w.ues / 2
	id := e.spans.begin(e.root, "warmup")
	defer e.spans.end(id)
	root := e.root
	e.root = id
	defer func() { e.root = root }()
	_, _, err = drainScenario(e, w.spec, scenario.RunOpts{UEs: max(warm, 100), BatchSize: synthChunk}, false, nil, &w.acc)
	return err
}

// flashCrowd is the builtin flash-crowd scenario under the run's seed.
func flashCrowd(seed uint64) (*scenario.Spec, error) {
	spec, err := scenario.Builtin("flash-crowd")
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	return spec, nil
}

// One synth-count round is a quarter of the 100k-UE run it stands for, cut
// into chunks a quarter the default size, so it spills the same 98 sorted
// runs and reduces them through the same default fan-in of 64.
const (
	synthUEs   = 25_000
	synthChunk = scenario.DefaultChunkStreams / 4
	// synthPinned is the event count at seed 1 and synthUEs, a guard
	// against a change that silently alters what the pipeline emits.
	synthPinned = 823187
)

func (w *synthCount) round(e *env, traced bool) (roundOut, error) {
	sum, tp, err := drainScenario(e, w.spec, scenario.RunOpts{UEs: w.ues, BatchSize: synthChunk}, traced, nil, &w.acc)
	if err != nil {
		return roundOut{}, err
	}
	if e.seed == 1 && w.ues == synthUEs {
		e.check("synth.pinned_event_count", sum.Events == synthPinned, "flash-crowd seed 1 at %d UEs gave %d events, pinned %d", synthUEs, sum.Events, synthPinned)
	}
	return roundOut{events: int64(sum.Events), digest: tp.digest}, nil
}

func (w *synthCount) layers(e *env, traced int, m map[string]float64) {
	w.acc.layers(traced, m)
	m["synthetic.source_us_per_ue"] = m["scenario.source_busy_s"] * 1e6 / float64(w.ues)
}
