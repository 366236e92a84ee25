package nn

import (
	"testing"

	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
)

func TestLinearExportF32Packs(t *testing.T) {
	rng := stats.NewRand(5)
	l := NewLinear(7, 29, rng) // a 16-, an 8- and a 5-wide panel
	e := l.ExportF32()
	if e.In != 7 || e.Out != 29 || len(e.W) != 7*29 || len(e.B) != 29 {
		t.Fatalf("bad export shape: %+v", e)
	}
	want := make([]float32, 7*29)
	tensor.PackF32(want, l.W.Data, 7, 29)
	for k := range want {
		if e.W[k] != want[k] {
			t.Fatalf("W[%d] = %v, want %v: the export is not the GEMM's packed layout", k, e.W[k], want[k])
		}
	}
	for j, b := range l.B.Data {
		if e.B[j] != float32(b) {
			t.Fatalf("B[%d] = %v, want %v", j, e.B[j], float32(b))
		}
	}
	// Snapshot must not alias the live parameters.
	before := e.W[0]
	l.W.Data[0] += 1
	if e.W[0] != before {
		t.Fatal("export aliases live weights")
	}
}

func TestLayerNormAndMLPExportF32(t *testing.T) {
	rng := stats.NewRand(6)
	ln := NewLayerNorm(5)
	ln.Gain.Data[2] = 1.5
	ln.Bias.Data[3] = -0.25
	le := ln.ExportF32()
	if le.Eps != ln.Eps || le.Gain[2] != 1.5 || le.Bias[3] != -0.25 {
		t.Fatalf("layer norm export mismatch: %+v", le)
	}

	m := NewMLP(rng, 6, 8, 3)
	me := m.ExportF32()
	if len(me.Layers) != 2 || me.Layers[0].In != 6 || me.Layers[0].Out != 8 || me.Layers[1].Out != 3 {
		t.Fatalf("mlp export shape mismatch: %+v", me)
	}
}
