package cptgen

import (
	"path/filepath"
	"testing"

	"cptgpt/internal/events"
)

// TestFacadePipeline exercises the public API end-to-end the way the
// quickstart example does: ground truth → train → generate → evaluate →
// save/load → downstream MCN consumers.
func TestFacadePipeline(t *testing.T) {
	gtCfg := DefaultGroundTruthConfig()
	gtCfg.UEs = map[events.DeviceType]int{Phone: 120}
	gtCfg.Hours = 1
	real, err := GenerateGroundTruth(gtCfg)
	if err != nil {
		t.Fatal(err)
	}
	if real.NumStreams() == 0 {
		t.Fatal("empty ground truth")
	}

	cfg := DefaultCPTGPTConfig()
	cfg.Epochs = 3
	model, err := TrainCPTGPT(real, cfg, CPTGPTTrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	synth, err := model.Generate(CPTGPTGenOpts{NumStreams: 60, Device: Phone, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := Evaluate(real, synth)
	if f.EventViolation < 0 || f.FlowLenMaxY < 0 || f.FlowLenMaxY > 1 {
		t.Fatalf("implausible fidelity: %+v", f)
	}

	// Model persistence through the facade.
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCPTGPT(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumParams() != model.NumParams() {
		t.Fatal("loaded model differs")
	}

	// Trace persistence.
	tracePath := filepath.Join(t.TempDir(), "synth.jsonl")
	if err := SaveTrace(tracePath, synth); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrace(tracePath, Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEvents() != synth.NumEvents() {
		t.Fatal("trace round trip lost events")
	}

	// Downstream: virtual-time MCN.
	rep, err := SimulateMCN(synth, DefaultMCNConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != synth.NumEvents() {
		t.Fatalf("MCN processed %d of %d events", rep.Events, synth.NumEvents())
	}

	// Downstream: TCP replay.
	srv, err := ListenMCN("127.0.0.1:0", Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stats, err := ReplayOverTCP(srv.Addr().String(), synth)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != synth.NumEvents() {
		t.Fatalf("TCP replay delivered %d of %d events", stats.Events, synth.NumEvents())
	}
}

// TestSpeculativeThroughFacade covers the exported speculative-decoding
// surface: the speculative knobs on CPTGPTGenOpts and the decode-stats
// telemetry, drafting from the model's self-fitted n-gram on a trained
// model — where acceptance should be healthy, since the draft is fitted on
// the model's own output.
func TestSpeculativeThroughFacade(t *testing.T) {
	gtCfg := DefaultGroundTruthConfig()
	gtCfg.UEs = map[events.DeviceType]int{Phone: 120}
	gtCfg.Hours = 1
	real, err := GenerateGroundTruth(gtCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCPTGPTConfig()
	cfg.Epochs = 3
	model, err := TrainCPTGPT(real, cfg, CPTGPTTrainOpts{})
	if err != nil {
		t.Fatal(err)
	}

	var st CPTGPTDecodeStats
	synth, err := model.Generate(CPTGPTGenOpts{
		NumStreams: 50, Device: Phone, Seed: 7, Precision: PrecisionF32,
		Speculative: true, DraftTokens: DefaultDraftTokens, Stats: &st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if synth.NumStreams() != 50 {
		t.Fatalf("generated %d streams", synth.NumStreams())
	}
	if st.DraftProposed == 0 || st.DraftAccepted > st.DraftProposed {
		t.Fatalf("implausible stats %+v", st)
	}
	t.Logf("self draft: %.1f%% acceptance (%d/%d)",
		100*float64(st.DraftAccepted)/float64(st.DraftProposed), st.DraftAccepted, st.DraftProposed)
}

// TestBaselinesThroughFacade covers SMM and NetShare construction.
func TestBaselinesThroughFacade(t *testing.T) {
	gtCfg := DefaultGroundTruthConfig()
	gtCfg.UEs = map[events.DeviceType]int{Phone: 100}
	gtCfg.Hours = 1
	real, err := GenerateGroundTruth(gtCfg)
	if err != nil {
		t.Fatal(err)
	}

	smmCfg := DefaultSMMConfig()
	smmCfg.K = 4
	smmModel, err := FitSMM(real, smmCfg)
	if err != nil {
		t.Fatal(err)
	}
	smmGen, err := smmModel.Generate(SMMGenOpts{NumStreams: 50, Device: Phone, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ReplayStats(smmGen).ViolatingEvents != 0 {
		t.Fatal("SMM output must be violation-free")
	}

	nsCfg := DefaultNetShareConfig()
	nsCfg.Epochs = 2
	nsModel, err := TrainNetShare(real, nsCfg, NetShareTrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	nsGen, err := nsModel.Generate(NetShareGenOpts{NumStreams: 50, Device: Phone, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if nsGen.NumStreams() != 50 {
		t.Fatal("NetShare generation failed")
	}

	// Memorization audit through the facade.
	mem, err := Memorization(smmGen, real, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Rate() < 0 || mem.Rate() > 1 {
		t.Fatalf("memorization rate %v", mem.Rate())
	}
}

// TestFineTuneThroughFacade covers the transfer-learning path.
func TestFineTuneThroughFacade(t *testing.T) {
	gtCfg := DefaultGroundTruthConfig()
	gtCfg.UEs = map[events.DeviceType]int{Phone: 80}
	gtCfg.Hours = 2
	gtCfg.StartHour = 7
	full, err := GenerateGroundTruth(gtCfg)
	if err != nil {
		t.Fatal(err)
	}
	h0, h1 := full.SliceHour(0), full.SliceHour(1)

	cfg := DefaultCPTGPTConfig()
	cfg.Epochs = 2
	base, err := TrainCPTGPT(h0, cfg, CPTGPTTrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	adapted, err := FineTuneCPTGPT(base, h1, CPTGPTTrainOpts{Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if adapted == base {
		t.Fatal("FineTuneCPTGPT must return an independent model")
	}
	// The base must be untouched by the fine-tune.
	if base.Params()[0].Data[0] == adapted.Params()[0].Data[0] &&
		base.Params()[2].Data[0] == adapted.Params()[2].Data[0] {
		t.Log("fine-tune left first params identical (possible but unlikely)")
	}
}

// TestScenarioFacade drives the scenario engine through the root API: a
// built-in spec, JSON round trip, the count sink and the MCN sink, plus a
// custom source binding (an SMM model plugging in as a ChunkFunc).
func TestScenarioFacade(t *testing.T) {
	names := BuiltinScenarios()
	if len(names) < 6 {
		t.Fatalf("only %d built-in scenarios: %v", len(names), names)
	}
	spec, err := BuiltinScenario("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	if spec, err = LoadScenario(path); err != nil {
		t.Fatal(err)
	}

	sum, err := RunScenario(spec, ScenarioRunOpts{UEs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events == 0 {
		t.Fatal("scenario emitted nothing")
	}
	rep, err := RunScenarioMCN(spec, ScenarioRunOpts{UEs: 200}, DefaultMCNConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != sum.Events {
		t.Fatalf("MCN saw %d events, count sink saw %d", rep.Events, sum.Events)
	}

	// An SMM model binds into a spec as a custom source.
	gt, err := GenerateGroundTruth(GroundTruthConfig{
		Generation: Gen4G, Seed: 2,
		UEs:   map[DeviceType]int{Phone: 80},
		Hours: 1, StartHour: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	smmModel, err := FitSMM(gt, DefaultSMMConfig())
	if err != nil {
		t.Fatal(err)
	}
	custom := &ScenarioSpec{
		Name: "smm-driven", Generation: "4G", Seed: 3, HorizonSec: 3600, Population: 50,
		Sources: []ScenarioSource{{ID: "smm", Kind: "custom", Share: 1}},
	}
	genOpts := SMMGenOpts{Device: Phone, Seed: 4, StartWindow: 1800}
	sum2, err := RunScenario(custom, ScenarioRunOpts{Sources: map[string]ScenarioChunkFunc{
		"smm": func(lo, hi int) ([]Stream, error) { return smmModel.GenerateRange(lo, hi, genOpts) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Events == 0 {
		t.Fatal("SMM-driven scenario emitted nothing")
	}
}
