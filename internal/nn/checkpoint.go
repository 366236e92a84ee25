package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"cptgpt/internal/tensor"
)

// Blob is the gob wire form of one parameter tensor. It is the only such
// type in the tree: a parameter checkpoint ("cptgpt-nn/1", below) and a
// CPT-GPT model file ("cptgpt-model/1", internal/cptgpt) both store a
// []Blob. gob matches the fields by name and ignores the type's own name,
// so files written when each package declared its own copy still load.
type Blob struct {
	Rows, Cols int
	Data       []float64
}

// Blobs returns the wire form of params, in order, sharing their storage.
func Blobs(params []*tensor.Tensor) []Blob {
	blobs := make([]Blob, len(params))
	for i, p := range params {
		blobs[i] = Blob{Rows: p.Rows, Cols: p.Cols, Data: p.Data}
	}
	return blobs
}

// LoadBlobs copies the stored values into params, which must match the
// blobs in count and, one by one, in shape; each blob must hold exactly
// Rows×Cols values.
func LoadBlobs(params []*tensor.Tensor, blobs []Blob) error {
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: %d parameters stored, model has %d", len(blobs), len(params))
	}
	for i, b := range blobs {
		p := params[i]
		if b.Rows != p.Rows || b.Cols != p.Cols {
			return fmt.Errorf("nn: parameter %d shape mismatch: stored %d×%d, model %d×%d",
				i, b.Rows, b.Cols, p.Rows, p.Cols)
		}
		if len(b.Data) != len(p.Data) {
			return fmt.Errorf("nn: parameter %d holds %d values, want %d×%d", i, len(b.Data), b.Rows, b.Cols)
		}
		copy(p.Data, b.Data)
	}
	return nil
}

// checkpoint is the gob wire form of a full parameter set. It holds no map:
// gob writes a map in random order, and a file's bytes must depend on the
// parameters alone. Older files also carry a Meta map of strings, which gob
// skips on decode.
type checkpoint struct {
	Magic  string
	Params []Blob
}

const checkpointMagic = "cptgpt-nn/1"

// SaveParams serializes params (in order) to w. The bytes depend only on
// the parameter shapes and values.
func SaveParams(w io.Writer, params []*tensor.Tensor) error {
	ck := checkpoint{Magic: checkpointMagic, Params: Blobs(params)}
	if err := gob.NewEncoder(w).Encode(&ck); err != nil {
		return fmt.Errorf("nn: encoding checkpoint: %w", err)
	}
	return nil
}

// LoadParams reads a checkpoint from r and copies the stored values into
// params, which must match the stored shapes in order.
func LoadParams(r io.Reader, params []*tensor.Tensor) error {
	var ck checkpoint
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return fmt.Errorf("nn: decoding checkpoint: %w", err)
	}
	if ck.Magic != checkpointMagic {
		return fmt.Errorf("nn: bad checkpoint magic %q", ck.Magic)
	}
	return LoadBlobs(params, ck.Params)
}

// SaveFile creates path and hands it to write — the file half of every
// model's SaveFile. A failed close is reported unless write already failed.
func SaveFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: creating %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f)
}

// LoadFile opens path and returns what read makes of it — the file half of
// every model's LoadFile.
func LoadFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("nn: opening %s: %w", path, err)
	}
	defer f.Close()
	return read(f)
}

// CopyParams copies values from src parameters into dst (shape-checked) —
// the warm-start primitive behind transfer learning (Design 3).
func CopyParams(dst, src []*tensor.Tensor) error {
	return LoadBlobs(dst, Blobs(src))
}

// NumParams returns the total scalar parameter count of params.
func NumParams(params []*tensor.Tensor) int {
	var n int
	for _, p := range params {
		n += p.Numel()
	}
	return n
}
