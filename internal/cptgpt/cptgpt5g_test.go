package cptgpt

import (
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/metrics"
	"cptgpt/internal/synthetic"
)

// Test5GEndToEnd exercises the generality claim (C1): the same model,
// tokenizer and training loop work on the 5G vocabulary and state machine
// with zero code changes — only the Generation field differs.
func Test5GEndToEnd(t *testing.T) {
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen5G,
		Seed:       21,
		UEs:        map[events.DeviceType]int{events.Phone: 120},
		Hours:      1,
		StartHour:  10,
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := smallConfig()
	cfg.Generation = events.Gen5G
	tok := FitTokenizer(d)
	if tok.Gen != events.Gen5G || tok.Dim() != 8 {
		t.Fatalf("5G tokenizer: gen %v dim %d", tok.Gen, tok.Dim())
	}
	m, err := NewModel(cfg, tok)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m, d, TrainOpts{}); err != nil {
		t.Fatal(err)
	}
	gen, err := m.Generate(GenOpts{NumStreams: 120, Device: events.Phone, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}

	// All generated events must come from the 5G vocabulary.
	for i := range gen.Streams {
		for _, e := range gen.Streams[i].Events {
			if events.VocabIndex(events.Gen5G, e.Type) < 0 {
				t.Fatalf("generated non-5G event %s", e.Type)
			}
		}
	}
	// And the violation rate must stay low (the 5G machine is simpler than
	// 4G: no TAU ambiguity).
	agg := metrics.Replay(gen)
	if r := agg.EventViolationRate(); r > 0.05 {
		t.Fatalf("5G event violation rate %.3f", r)
	}
}

// TestGenerationMismatchRejected: a 5G config cannot pair with a 4G
// tokenizer, and 4G data cannot train a 5G model.
func TestGenerationMismatchRejected(t *testing.T) {
	d4 := testTrainingData(t, 20)
	tok4 := FitTokenizer(d4)
	cfg := smallConfig()
	cfg.Generation = events.Gen5G
	if _, err := NewModel(cfg, tok4); err == nil {
		t.Fatal("5G config with 4G tokenizer must error")
	}

	cfg4 := smallConfig()
	m, err := NewModel(cfg4, tok4)
	if err != nil {
		t.Fatal(err)
	}
	d5, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen5G,
		Seed:       23,
		UEs:        map[events.DeviceType]int{events.Phone: 10},
		Hours:      1,
		StartHour:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m, d5, TrainOpts{}); err == nil {
		t.Fatal("5G data into 4G model must error")
	}
}

// TestStartWindowStaggersStreams: the StartWindow option spreads stream
// starts without touching interarrivals.
func TestStartWindowStaggersStreams(t *testing.T) {
	d := testTrainingData(t, 30)
	tok := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tok)
	if err != nil {
		t.Fatal(err)
	}
	m.InitialDist = d.InitialEventDist()

	plain, err := m.Generate(GenOpts{NumStreams: 40, Device: events.Phone, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := m.Generate(GenOpts{NumStreams: 40, Device: events.Phone, Seed: 9, StartWindow: 3600})
	if err != nil {
		t.Fatal(err)
	}
	var plainVar, spreadVar bool
	for i := range plain.Streams {
		if plain.Streams[i].Events[0].Time != 0 {
			plainVar = true
		}
		if spread.Streams[i].Events[0].Time != 0 {
			spreadVar = true
		}
	}
	if plainVar {
		t.Fatal("without StartWindow all streams must start at 0")
	}
	if !spreadVar {
		t.Fatal("with StartWindow stream starts must vary")
	}
}

// TestFineTuneDefaults: FineTune derives reduced budgets from the config.
func TestFineTuneDefaults(t *testing.T) {
	d := testTrainingData(t, 40)
	tok := FitTokenizer(d)
	cfg := smallConfig()
	cfg.Epochs = 9
	m, err := NewModel(cfg, tok)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FineTune(m, d, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs > cfg.Epochs/3+1 {
		t.Fatalf("fine-tune ran %d epochs; must be a fraction of %d", res.Epochs, cfg.Epochs)
	}
}

// TestFineTuneRunsEveryEpoch: FineTune runs its whole epoch budget; nothing
// cuts a run short.
func TestFineTuneRunsEveryEpoch(t *testing.T) {
	d := testTrainingData(t, 40)
	m, err := NewModel(smallConfig(), FitTokenizer(d))
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 12
	res, err := FineTune(m, d, TrainOpts{Epochs: epochs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs != epochs {
		t.Fatalf("fine-tune ran %d of %d epochs", res.Epochs, epochs)
	}
}

// TestProbeCheckpointRestored: the checkpoint-ranking probe restores the
// best-scoring weights.
func TestProbeCheckpointRestored(t *testing.T) {
	d := testTrainingData(t, 40)
	tok := FitTokenizer(d)
	cfg := smallConfig()
	cfg.Epochs = 3
	m, err := NewModel(cfg, tok)
	if err != nil {
		t.Fatal(err)
	}
	var snapshots [][]float64
	calls := 0
	res, err := Train(m, d, TrainOpts{Probe: func() float64 {
		calls++
		snapshots = append(snapshots, append([]float64(nil), m.Params()[0].Data...))
		return float64(calls) // epoch 1 is "best"
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEpoch != 1 {
		t.Fatalf("best epoch %d, want 1", res.BestEpoch)
	}
	got := m.Params()[0].Data
	want := snapshots[0]
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("best checkpoint was not restored")
		}
	}
}
