package nn

import (
	"io"
	"path/filepath"
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
// values do not fill it is an error, not a partial load.
func TestLoadBlobsRejectsWrongValueCount(t *testing.T) {
	m := NewMLP(newRNG(), 4, 8, 2)
	for _, n := range []int{1, 33} {
		blobs := Blobs(m.Params())
		blobs[0].Data = make([]float64, n)
		if err := LoadBlobs(NewMLP(newRNG(), 4, 8, 2).Params(), blobs); err == nil {
			t.Fatalf("a 4×8 blob with %d values loaded", n)
		}
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
