package nn

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"cptgpt/internal/tensor"
)

func TestCheckpointFileRoundTrip(t *testing.T) {
	rng := newRNG()
	m1 := NewMLP(rng, 4, 8, 2)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	err := SaveFile(path, func(w io.Writer) error {
		return SaveParams(w, m1.Params())
	})
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMLP(newRNG(), 4, 8, 2)
	m2.Layers[0].W.Data[0] = 99
	_, err = LoadFile(path, func(r io.Reader) (struct{}, error) {
		return struct{}{}, LoadParams(r, m2.Params())
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Layers[0].W.Data[0] == 99 {
		t.Fatal("load did not restore values")
	}
}

// TestLoadBlobsRejectsWrongValueCount: a blob whose shape matches but whose
// values do not fill it is an error, not a partial load, in either wire
// form.
func TestLoadBlobsRejectsWrongValueCount(t *testing.T) {
	m := NewMLP(newRNG(), 4, 8, 2)
	for _, n := range []int{1, 33} {
		blobs := floatBlobs(m.Params())
		blobs[0].Data = make([]float64, n)
		if err := LoadBlobs(NewMLP(newRNG(), 4, 8, 2).Params(), blobs, false); err == nil {
			t.Fatalf("a 4×8 /1 blob with %d values loaded", n)
		}
	}
	for _, n := range []int{8, 255, 257, 8 * 33} {
		blobs := Blobs(m.Params())
		blobs[0].Bits = make([]byte, n)
		if err := LoadBlobs(NewMLP(newRNG(), 4, 8, 2).Params(), blobs, true); err == nil {
			t.Fatalf("a 4×8 /2 blob with %d bytes loaded", n)
		}
	}
}

// floatBlobs is the "/1" wire form of params: values in Data.
func floatBlobs(params []*tensor.Tensor) []Blob {
	blobs := make([]Blob, len(params))
	for i, p := range params {
		blobs[i] = Blob{Rows: p.Rows, Cols: p.Cols, Data: append([]float64(nil), p.Data...)}
	}
	return blobs
}

// TestLoadBlobsWireForms: both wire forms load bit-equal, including values
// a decimal or varint path could mangle, and a blob in the wrong field for
// its form, in both fields, or with a byte count that is not 8×Rows×Cols
// is rejected with a message naming the parameter.
func TestLoadBlobsWireForms(t *testing.T) {
	src := NewMLP(newRNG(), 4, 8, 2).Params()
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64, math.Inf(1), math.NaN(), 1.0 / 3}
	copy(src[0].Data, special)
	for _, bits := range []bool{false, true} {
		blobs := floatBlobs(src)
		if bits {
			blobs = Blobs(src)
		}
		dst := NewMLP(nil, 4, 8, 2).Params()
		if err := LoadBlobs(dst, blobs, bits); err != nil {
			t.Fatalf("bits=%v: %v", bits, err)
		}
		for i := range src {
			for j, v := range src[i].Data {
				if math.Float64bits(dst[i].Data[j]) != math.Float64bits(v) {
					t.Fatalf("bits=%v: parameter %d value %d loaded as %v, stored %v", bits, i, j, dst[i].Data[j], v)
				}
			}
		}
	}
	cases := []struct {
		name  string
		bits  bool
		spoil func(b *Blob)
		want  string
	}{
		{"short Bits", true, func(b *Blob) { b.Bits = b.Bits[:len(b.Bits)-1] }, "parameter 1 holds 15 bytes, want 8×1×2"},
		{"long Bits", true, func(b *Blob) { b.Bits = append(b.Bits, make([]byte, 8)...) }, "parameter 1 holds 24 bytes, want 8×1×2"},
		{"Bits and Data", true, func(b *Blob) { b.Data = []float64{1, 2} }, "parameter 1 stores both Bits and Data"},
		{"/2 with Data", true, func(b *Blob) { b.Bits, b.Data = nil, []float64{1, 2} }, "parameter 1 stores Data in a /2 file"},
		{"/1 with Bits", false, func(b *Blob) { b.Data, b.Bits = nil, make([]byte, 16) }, "parameter 1 stores Bits in a /1 file"},
		{"/1 with Bits and Data", false, func(b *Blob) { b.Bits = make([]byte, 16) }, "parameter 1 stores both Bits and Data"},
	}
	for _, c := range cases {
		params := NewMLP(newRNG(), 2, 2).Params() // W 2×2, B 1×2
		blobs := floatBlobs(params)
		if c.bits {
			blobs = Blobs(params)
		}
		c.spoil(&blobs[1])
		err := LoadBlobs(params, blobs, c.bits)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestSaveParamsWritesBits: a checkpoint is written in the /2 form, and a
// /1 checkpoint (values in Data) still loads.
func TestSaveParamsWritesBits(t *testing.T) {
	src := NewMLP(newRNG(), 3, 5, 2).Params()
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	var ck checkpoint
	if err := gob.NewDecoder(&buf).Decode(&ck); err != nil {
		t.Fatal(err)
	}
	if ck.Magic != "cptgpt-nn/2" || ck.Params[0].Data != nil || len(ck.Params[0].Bits) != 8*15 {
		t.Fatalf("magic %q, blob 0 has %d values in Data and %d bytes in Bits", ck.Magic, len(ck.Params[0].Data), len(ck.Params[0].Bits))
	}
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(checkpoint{Magic: "cptgpt-nn/1", Params: floatBlobs(src)}); err != nil {
		t.Fatal(err)
	}
	dst := NewMLP(nil, 3, 5, 2).Params()
	if err := LoadParams(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		for j, v := range src[i].Data {
			if dst[i].Data[j] != v {
				t.Fatalf("/1 checkpoint: parameter %d value %d loaded as %v, stored %v", i, j, dst[i].Data[j], v)
			}
		}
	}
}

// TestNilRNGBuildsZeroWeights: a constructor given a nil rng draws nothing;
// its drawn weights are zero and its fixed ones (gains, biases) as usual.
func TestNilRNGBuildsZeroWeights(t *testing.T) {
	l := NewLinear(3, 4, nil)
	c := NewLSTMCell(2, 3, nil)
	for _, w := range []*tensor.Tensor{l.W, l.B, c.Wx, c.Wh} {
		for _, v := range w.Data {
			if v != 0 {
				t.Fatalf("nil rng drew %v", v)
			}
		}
	}
	if c.B.Data[3] != 1 {
		t.Fatalf("forget-gate bias %v, want 1", c.B.Data[3])
	}
	if ln := NewLayerNorm(2); ln.Gain.Data[0] != 1 {
		t.Fatalf("layer-norm gain %v, want 1", ln.Gain.Data[0])
	}
}

func TestLoadParamsFileMissing(t *testing.T) {
	m := NewMLP(newRNG(), 2, 2)
	_, err := LoadFile(filepath.Join(t.TempDir(), "nope.bin"), func(r io.Reader) (struct{}, error) {
		return struct{}{}, LoadParams(r, m.Params())
	})
	if err == nil {
		t.Fatal("missing file must error")
	}
	err = SaveFile(filepath.Join(t.TempDir(), "no", "such", "dir.bin"), func(io.Writer) error { return nil })
	if err == nil {
		t.Fatal("an uncreatable file must error")
	}
}

func TestBlockForwardShapePreserved(t *testing.T) {
	rng := newRNG()
	b := NewBlock(16, 4, 32, rng)
	x := tensor.Randn(7, 16, 1, rng)
	y := b.Forward(x)
	if y.Rows != 7 || y.Cols != 16 {
		t.Fatalf("block output %dx%d", y.Rows, y.Cols)
	}
}
