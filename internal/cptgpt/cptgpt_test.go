package cptgpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/metrics"
	"cptgpt/internal/nn"
	"cptgpt/internal/stats"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// testTrainingData returns a small phone-only 4G ground-truth trace.
func testTrainingData(t *testing.T, ues int) *trace.Dataset {
	t.Helper()
	cfg := synthetic.DefaultConfig()
	cfg.UEs = map[events.DeviceType]int{events.Phone: ues}
	cfg.Hours = 1
	d, err := synthetic.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.DModel = 24
	cfg.Heads = 4
	cfg.MLPHidden = 48
	cfg.HeadHidden = 24
	cfg.MaxLen = 160
	cfg.Epochs = 8
	return cfg
}

func TestTokenizerScaleRoundTrip(t *testing.T) {
	tk := Tokenizer{Gen: events.Gen4G, MinLog: 0, MaxLog: math.Log1p(1000), LogScale: true}
	for _, x := range []float64{0, 0.5, 1, 10, 100, 999} {
		s := tk.ScaleIA(x)
		if s < 0 || s > 1 {
			t.Fatalf("ScaleIA(%v) = %v outside [0,1]", x, s)
		}
		back := tk.UnscaleIA(s)
		if math.Abs(back-x) > 1e-6*(1+x) {
			t.Fatalf("round trip %v -> %v -> %v", x, s, back)
		}
	}
	// Out-of-range values clamp rather than extrapolate.
	if s := tk.ScaleIA(1e9); s != 1 {
		t.Fatalf("ScaleIA above range = %v, want 1", s)
	}
	if s := tk.ScaleIA(-5); s != 0 {
		t.Fatalf("ScaleIA below range = %v, want 0", s)
	}
}

func TestTokenizerDim(t *testing.T) {
	tk := Tokenizer{Gen: events.Gen4G, LogScale: true, MaxLog: 1}
	if tk.Dim() != 9 { // 1 + 6 + 2, the paper's d_token
		t.Fatalf("4G token dim = %d, want 9", tk.Dim())
	}
	tk5 := Tokenizer{Gen: events.Gen5G, LogScale: true, MaxLog: 1}
	if tk5.Dim() != 8 { // 1 + 5 + 2
		t.Fatalf("5G token dim = %d, want 8", tk5.Dim())
	}
}

func TestEncodeStream(t *testing.T) {
	s := &trace.Stream{UEID: "u", Device: events.Phone, Events: []trace.Event{
		{Time: 0, Type: events.Attach},
		{Time: 10, Type: events.S1ConnRel},
		{Time: 40, Type: events.ServiceRequest},
	}}
	d := &trace.Dataset{Generation: events.Gen4G, Streams: []trace.Stream{*s}}
	tk := FitTokenizer(d)
	in, tg, err := tk.EncodeStream(s)
	if err != nil {
		t.Fatal(err)
	}
	if in.Rows != 2 || in.Cols != 9 {
		t.Fatalf("encoded shape %dx%d, want 2x9", in.Rows, in.Cols)
	}
	// First token: ia 0, event ATCH (index 0), stop 0.
	if in.At(0, 0) != 0 {
		t.Fatalf("first token ia = %v, want 0", in.At(0, 0))
	}
	if in.At(0, 1) != 1 {
		t.Fatal("first token should one-hot ATCH")
	}
	if in.At(0, 7) != 1 || in.At(0, 8) != 0 {
		t.Fatal("first token stop flag should be 0")
	}
	// Targets: next events are S1_CONN_REL (idx 3) then SRV_REQ (idx 2).
	if tg.Event[0] != 3 || tg.Event[1] != 2 {
		t.Fatalf("targets %v, want [3 2]", tg.Event)
	}
	if tg.Stop[0] != 0 || tg.Stop[1] != 1 {
		t.Fatalf("stop targets %v, want [0 1]", tg.Stop)
	}
	if !tg.IAMask[0] || !tg.IAMask[1] {
		t.Fatal("IA targets should be unmasked")
	}
}

func TestEncodeStreamRejectsShort(t *testing.T) {
	s := &trace.Stream{Events: []trace.Event{{Time: 0, Type: events.Attach}}}
	tk := Tokenizer{Gen: events.Gen4G, MaxLog: 1, LogScale: true}
	if _, _, err := tk.EncodeStream(s); err == nil {
		t.Fatal("length-1 stream must be rejected")
	}
}

func TestEncodeStreamRejectsWrongVocabulary(t *testing.T) {
	s := &trace.Stream{Events: []trace.Event{
		{Time: 0, Type: events.Register}, // 5G event
		{Time: 1, Type: events.ANRel},
	}}
	tk := Tokenizer{Gen: events.Gen4G, MaxLog: 1, LogScale: true}
	if _, _, err := tk.EncodeStream(s); err == nil {
		t.Fatal("5G events must be rejected by a 4G tokenizer")
	}
}

// TestDecoderMatchesForward verifies the KV-cached incremental decoder
// against the full tape forward pass — the core inference-correctness
// invariant.
func TestDecoderMatchesForward(t *testing.T) {
	d := testTrainingData(t, 20)
	tk := FitTokenizer(d)
	cfg := smallConfig()
	m, err := NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}

	var enc *tensor.Tensor
	for i := range d.Streams {
		if len(d.Streams[i].Events) >= 6 && len(d.Streams[i].Events) <= cfg.MaxLen {
			enc, _, err = tk.EncodeStream(&d.Streams[i])
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if enc == nil {
		t.Skip("no suitable stream in tiny dataset")
	}

	h, err := m.Forward(enc, nil)
	if err != nil {
		t.Fatal(err)
	}

	dec := newDecoder(m)
	dim := tk.Dim()
	var out StepOut
	for r := 0; r < enc.Rows; r++ {
		out = dec.step(enc.Data[r*dim : (r+1)*dim])
		// Compare against the tape forward at this row.
		for j := 0; j < tk.V(); j++ {
			if diff := math.Abs(out.EventLogits[j] - h.EventLogits.At(r, j)); diff > 1e-9 {
				t.Fatalf("row %d event logit %d differs by %g", r, j, diff)
			}
		}
		if diff := math.Abs(out.IAMean - h.IAMean.At(r, 0)); diff > 1e-9 {
			t.Fatalf("row %d iaMean differs by %g", r, diff)
		}
		if diff := math.Abs(out.IALogStd - h.IALogStd.At(r, 0)); diff > 1e-9 {
			t.Fatalf("row %d iaLogStd differs by %g", r, diff)
		}
		for j := 0; j < 2; j++ {
			if diff := math.Abs(out.StopLogits[j] - h.StopLogits.At(r, j)); diff > 1e-9 {
				t.Fatalf("row %d stop logit %d differs by %g", r, j, diff)
			}
		}
	}
}

// TestTrainLearnsSemantics is the headline end-to-end check: a small model
// trained on ground-truth traffic should generate streams with a far lower
// violation rate than chance and a sane event breakdown.
func TestTrainLearnsSemantics(t *testing.T) {
	d := testTrainingData(t, 150)
	tk := FitTokenizer(d)
	cfg := smallConfig()
	m, err := NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(m, d, TrainOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 || res.Epochs != cfg.Epochs {
		t.Fatalf("unexpected training result: %+v", res)
	}
	if res.EpochLoss[len(res.EpochLoss)-1] >= res.EpochLoss[0] {
		t.Fatalf("loss did not decrease: %v", res.EpochLoss)
	}

	gen, err := m.Generate(GenOpts{NumStreams: 200, Device: events.Phone, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if gen.NumStreams() != 200 {
		t.Fatalf("generated %d streams, want 200", gen.NumStreams())
	}
	agg := metrics.Replay(gen)
	if r := agg.EventViolationRate(); r > 0.05 {
		t.Fatalf("event violation rate %.3f too high after training", r)
	}

	f := metrics.Evaluate(d, gen)
	// SRV_REQ + release should dominate the breakdown as in the source.
	srvIdx := events.VocabIndex(events.Gen4G, events.ServiceRequest)
	relIdx := events.VocabIndex(events.Gen4G, events.S1ConnRel)
	if f.BreakdownSynth[srvIdx]+f.BreakdownSynth[relIdx] < 0.5 {
		t.Fatalf("SRV_REQ+S1_CONN_REL share %.2f, expected dominant",
			f.BreakdownSynth[srvIdx]+f.BreakdownSynth[relIdx])
	}
}

func TestGenerateStreamProperties(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	m.InitialDist = d.InitialEventDist()
	gen, err := m.Generate(GenOpts{NumStreams: 30, Device: events.Tablet, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range gen.Streams {
		s := &gen.Streams[i]
		if len(s.Events) == 0 || len(s.Events) > m.Cfg.MaxLen {
			t.Fatalf("stream %d length %d out of bounds", i, len(s.Events))
		}
		if s.Device != events.Tablet {
			t.Fatalf("stream %d device %v", i, s.Device)
		}
		last := math.Inf(-1)
		for _, e := range s.Events {
			if e.Time < last {
				t.Fatalf("stream %d timestamps decrease", i)
			}
			last = e.Time
		}
	}
}

func TestGenerateDeterministicForSeed(t *testing.T) {
	d := testTrainingData(t, 30)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	m.InitialDist = d.InitialEventDist()
	g1, err := m.Generate(GenOpts{NumStreams: 10, Device: events.Phone, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m.Generate(GenOpts{NumStreams: 10, Device: events.Phone, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Streams {
		a, b := g1.Streams[i], g2.Streams[i]
		if len(a.Events) != len(b.Events) {
			t.Fatalf("stream %d lengths differ: %d vs %d", i, len(a.Events), len(b.Events))
		}
		for j := range a.Events {
			if a.Events[j] != b.Events[j] {
				t.Fatalf("stream %d event %d differs", i, j)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := testTrainingData(t, 30)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	m.InitialDist = d.InitialEventDist()

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := m.Generate(GenOpts{NumStreams: 5, Device: events.Phone, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m2.Generate(GenOpts{NumStreams: 5, Device: events.Phone, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Streams {
		if len(g1.Streams[i].Events) != len(g2.Streams[i].Events) {
			t.Fatal("loaded model generates differently")
		}
		for j := range g1.Streams[i].Events {
			if g1.Streams[i].Events[j] != g2.Streams[i].Events[j] {
				t.Fatal("loaded model generates differently")
			}
		}
	}
}

// TestLoadRejectsMalformedFile: a model file must fail Load, not a later
// Generate, when a parameter blob does not fill its tensor or the
// initial-event distribution is not one usable weight per event type.
func TestLoadRejectsMalformedFile(t *testing.T) {
	d := testTrainingData(t, 30)
	m, err := NewModel(smallConfig(), FitTokenizer(d))
	if err != nil {
		t.Fatal(err)
	}
	v := m.Tok.V()
	uniform := func() []float64 {
		w := make([]float64, v)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	cases := map[string]func(mf *modelFile){
		"short blob":     func(mf *modelFile) { mf.Params[0].Data = mf.Params[0].Data[:1] },
		"V+3 weights":    func(mf *modelFile) { mf.InitialDist = append(uniform(), 1, 1, 1) },
		"no weights":     func(mf *modelFile) { mf.InitialDist = nil },
		"negative":       func(mf *modelFile) { mf.InitialDist[0] = -1 },
		"NaN":            func(mf *modelFile) { mf.InitialDist[1] = math.NaN() },
		"+Inf":           func(mf *modelFile) { mf.InitialDist[0] = math.Inf(1) },
		"zero sum":       func(mf *modelFile) { clear(mf.InitialDist) },
		"overflowed sum": func(mf *modelFile) { mf.InitialDist[0], mf.InitialDist[1] = math.MaxFloat64, math.MaxFloat64 },
	}
	for name, spoil := range cases {
		mf := modelFile{Magic: modelMagic, Cfg: m.Cfg, Tok: m.Tok, InitialDist: uniform(), Params: nn.Blobs(m.Params())}
		mf.Params[0].Data = append([]float64(nil), mf.Params[0].Data...)
		spoil(&mf)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&mf); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); err == nil {
			t.Errorf("%s: the file loaded", name)
		}
	}
}

// TestParentModelFile pins the model wire form (cptgpt-model/1):
// testdata/parent-model.bin was written by Model.SaveFile at the commit
// before the parameter blob type moved into internal/nn (DModel 8, one
// block, one epoch). It must load with every parameter bit-equal and, through
// the float64 reference sampler, generate what Generate decoded in float64
// there. (A re-saved file differs from it in the gob type descriptor only,
// which names the blob type's package.)
func TestParentModelFile(t *testing.T) {
	m, err := LoadFile("testdata/parent-model.bin")
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range m.Params() {
		binary.Write(h, binary.LittleEndian, p.Data)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(m.Params()) != 33 || got != "6737447186f8b127686c078bb158bc03290d2cd321a4ec91f483590c6a127d5c" {
		t.Fatalf("%d parameters, digest %s", len(m.Params()), got)
	}
	g := referenceGenerate(t, m, GenOpts{NumStreams: 16, Device: events.Phone, Seed: 42})
	if got := traceDigest(t, g); got != "931614663dded2673bdcb1fa67c8d00ff22b818f0460eeeefeec511e6a4207c5" {
		t.Fatalf("generate digest %s (%d events, want 90)", got, g.NumEvents())
	}
}

// TestParentModelDecodePinned pins the decode of testdata/parent-model.bin
// under each GEMM kernel set: the trace file bytes of Generate over 16 phone
// streams at seed 42. The digests were recorded while float32 was an opt-in
// precision, before it became the only decode arithmetic: the default
// decode must equal what asking for float32 gave then.
func TestParentModelDecodePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	m, err := LoadFile("testdata/parent-model.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetGemmF32Asm(tensor.GemmF32Asm())
	want := map[bool]string{
		false: "2166956a64692e7cbee2fefb83ad708cba332e0e9ba8b5b5f98b8ebba96384fc",
		true:  "6fe8b4b4f6b81444b90dd59125735ff7f6856300b46e149bfedc18ae1f485b7c",
	}
	for _, asm := range gemmKernels() {
		tensor.SetGemmF32Asm(asm)
		g, err := m.Generate(GenOpts{NumStreams: 16, Device: events.Phone, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if got := traceDigest(t, g); got != want[asm] {
			t.Errorf("asm=%v: generate digest %s (%d events), want %s", asm, got, g.NumEvents(), want[asm])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	d := testTrainingData(t, 20)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c.Params()[0].Data[0] += 42
	if m.Params()[0].Data[0] == c.Params()[0].Data[0] {
		t.Fatal("clone shares parameter storage with original")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.DModel = 0 },
		func(c *Config) { c.DModel = 30; c.Heads = 4 }, // not divisible
		func(c *Config) { c.MaxLen = 1 },
		func(c *Config) { c.LR = 0 },
		func(c *Config) { c.LR = math.NaN() },
		func(c *Config) { c.LR = math.Inf(1) },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.LossWeights[1] = -1 },
		func(c *Config) { c.LossWeights[0] = math.NaN() },
		func(c *Config) { c.LossWeights[2] = math.Inf(1) },
		func(c *Config) { c.AccumStreams = -1 },
		func(c *Config) { c.Dropout = -0.1 },
		func(c *Config) { c.Dropout = 1 }, // tensor.Dropout panics at p ≥ 1
		func(c *Config) { c.Dropout = math.NaN() },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}

	// A model file carrying an invalid config fails at load, not at the
	// first training step.
	d := testTrainingData(t, 5)
	m, err := NewModel(smallConfig(), FitTokenizer(d))
	if err != nil {
		t.Fatal(err)
	}
	m.Cfg.Dropout = 1
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Fatal("Load accepted a model file with Dropout 1")
	}
}

func TestInitialDistExtractedDuringTraining(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	cfg := smallConfig()
	cfg.Epochs = 1
	m, err := NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m, d, TrainOpts{}); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range m.InitialDist {
		if p < 0 {
			t.Fatal("negative initial probability")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("initial distribution sums to %v", sum)
	}
	// It should match the dataset's first-event distribution exactly.
	want := d.InitialEventDist()
	for i := range want {
		if math.Abs(want[i]-m.InitialDist[i]) > 1e-12 {
			t.Fatal("initial distribution not extracted from training data")
		}
	}
	_ = stats.Mean // keep stats import if unused paths change
}

// traceDigest is the SHA-256 of the CSV trace file d saves to.
func traceDigest(t *testing.T, d *trace.Dataset) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csv")
	if err := trace.SaveFile(path, d); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(csv))
}
