package cptgpt

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"runtime"
	"testing"

	"cptgpt/internal/events"
)

// sameParams reports whether a and b hold the same parameters bit for bit
// (NaN payloads and signed zeros included) and the same initial-event
// distribution.
func sameParams(a, b *Model) bool {
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) || len(a.InitialDist) != len(b.InitialDist) {
		return false
	}
	for i := range pa {
		if pa[i].Rows != pb[i].Rows || pa[i].Cols != pb[i].Cols {
			return false
		}
		for j, v := range pa[i].Data {
			if math.Float64bits(v) != math.Float64bits(pb[i].Data[j]) {
				return false
			}
		}
	}
	for i, w := range a.InitialDist {
		if math.Float64bits(w) != math.Float64bits(b.InitialDist[i]) {
			return false
		}
	}
	return true
}

// TestParamCountMatchesNumParams pins Load's closed-form parameter count
// against the count of the model NewModel builds, over shapes that move
// every term.
func TestParamCountMatchesNumParams(t *testing.T) {
	shape := func(gen events.Generation, d, heads, blocks, mlp, head, maxLen int, dist bool) Config {
		cfg := DefaultConfig()
		cfg.Generation = gen
		cfg.DModel, cfg.Heads, cfg.Blocks, cfg.MLPHidden, cfg.HeadHidden, cfg.MaxLen, cfg.DistHead = d, heads, blocks, mlp, head, maxLen, dist
		return cfg
	}
	for _, cfg := range []Config{
		DefaultConfig(),
		smallConfig(),
		shape(events.Gen5G, 8, 2, 1, 16, 8, 2, false),
		shape(events.Gen4G, 128, 4, 2, 1024, 64, 256, true),
		shape(events.Gen5G, 12, 3, 3, 7, 5, 9, true),
	} {
		tok := Tokenizer{Gen: cfg.Generation}
		m, err := NewModel(cfg, tok)
		if err != nil {
			t.Fatal(err)
		}
		if got := paramCount(cfg, tok); got != float64(m.NumParams()) {
			t.Errorf("%+v: paramCount %.0f, NumParams %d", cfg, got, m.NumParams())
		}
	}
}

// TestLoadBoundsHeaderAllocation: a file whose header claims a large model
// but stores no parameters fails before the model is built, so its size,
// not its header, bounds what Load allocates. The header claims a model
// of 6.4 M parameters (51 MB of float64 weights); the file is about 560
// bytes.
func TestLoadBoundsHeaderAllocation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DModel, cfg.MLPHidden, cfg.MaxLen = 512, 2048, 1024
	tok := Tokenizer{Gen: cfg.Generation}
	mf := modelFile{Magic: modelMagic, Cfg: cfg, Tok: tok, InitialDist: make([]float64, tok.V())}
	for i := range mf.InitialDist {
		mf.InitialDist[i] = 1
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&mf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header without parameters loaded")
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
		t.Fatalf("a %d-byte file made Load allocate %d bytes before it failed: %v", len(file), delta, err)
	}
}

// tinyV2Model is a small untrained model saved in the current ("/2") form:
// a seed for FuzzLoadModel.
func tinyV2Model(tb testing.TB) []byte {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.DModel, cfg.Heads, cfg.Blocks, cfg.MLPHidden, cfg.HeadHidden, cfg.MaxLen = 4, 2, 1, 4, 4, 3
	m, err := NewModel(cfg, Tokenizer{Gen: cfg.Generation, MinLog: 0, MaxLog: 1, LogScale: true})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadModel: Load never panics on arbitrary bytes. It returns an error,
// or a model whose Save→Load round trip is parameter-equal, bit for bit.
// Seeds: the /1 fixture testdata/parent-model.bin and a tiny /2 model.
func FuzzLoadModel(f *testing.F) {
	parent, err := os.ReadFile("testdata/parent-model.bin")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	f.Add(tinyV2Model(f))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, file []byte) {
		m, err := Load(bytes.NewReader(file))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		m2, err := Load(&buf)
		if err != nil {
			t.Fatalf("a loaded model's save does not load: %v", err)
		}
		if !sameParams(m, m2) {
			t.Fatal("Save→Load changed a parameter")
		}
	})
}
