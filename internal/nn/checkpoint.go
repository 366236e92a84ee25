package nn

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"cptgpt/internal/tensor"
)

// Blob is the gob wire form of one parameter tensor. It is the only such
// type in the tree: a parameter checkpoint ("cptgpt-nn/2", below) and a
// CPT-GPT model file ("cptgpt-model/2", internal/cptgpt) both store a
// []Blob. A "/2" file stores each tensor's values in Bits: little-endian
// IEEE-754 float64, 8 bytes a value, which gob copies as one byte string.
// A "/1" file stores them in Data, which gob encodes value by value; it
// is still read. gob matches the fields by name and ignores the type's
// own name, so files written when each package declared its own copy
// still load.
type Blob struct {
	Rows, Cols int
	Data       []float64
	Bits       []byte
}

// Blobs returns the "/2" wire form of params, in order: each tensor's
// values as little-endian float64 bits.
func Blobs(params []*tensor.Tensor) []Blob {
	blobs := make([]Blob, len(params))
	for i, p := range params {
		b := make([]byte, 0, 8*len(p.Data))
		for _, v := range p.Data {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		blobs[i] = Blob{Rows: p.Rows, Cols: p.Cols, Bits: b}
	}
	return blobs
}

// CheckBlobs checks that each blob stores exactly Rows×Cols values, in
// Bits when bits is set (a "/2" file) and in Data when not ("/1"), with
// the other field empty, and returns the total count. A reader calls it
// before it builds the tensors the blobs fill, so a file's header cannot
// make it allocate more than the file's own values.
func CheckBlobs(blobs []Blob, bits bool) (int, error) {
	var total int
	for i, b := range blobs {
		switch {
		case b.Data != nil && b.Bits != nil:
			return 0, fmt.Errorf("nn: parameter %d stores both Bits and Data", i)
		case bits && b.Data != nil:
			return 0, fmt.Errorf("nn: parameter %d stores Data in a /2 file, which keeps values in Bits", i)
		case !bits && b.Bits != nil:
			return 0, fmt.Errorf("nn: parameter %d stores Bits in a /1 file, which keeps values in Data", i)
		}
		n := len(b.Data)
		if bits {
			if len(b.Bits)%8 != 0 || !fills(b.Rows, b.Cols, len(b.Bits)/8) {
				return 0, fmt.Errorf("nn: parameter %d holds %d bytes, want 8×%d×%d", i, len(b.Bits), b.Rows, b.Cols)
			}
			n = len(b.Bits) / 8
		} else if !fills(b.Rows, b.Cols, n) {
			return 0, fmt.Errorf("nn: parameter %d holds %d values, want %d×%d", i, n, b.Rows, b.Cols)
		}
		total += n
	}
	return total, nil
}

// fills reports whether n values fill a rows×cols tensor, without the
// product overflowing.
func fills(rows, cols, n int) bool {
	if rows < 0 || cols < 0 {
		return false
	}
	if rows == 0 || cols == 0 {
		return n == 0
	}
	return n%rows == 0 && n/rows == cols
}

// LoadBlobs copies the stored values into params, which must match the
// blobs in count and, one by one, in shape; bits says which wire form the
// blobs are in (see CheckBlobs).
func LoadBlobs(params []*tensor.Tensor, blobs []Blob, bits bool) error {
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: %d parameters stored, model has %d", len(blobs), len(params))
	}
	if _, err := CheckBlobs(blobs, bits); err != nil {
		return err
	}
	for i, b := range blobs {
		p := params[i]
		if err := sameShape(i, b.Rows, b.Cols, p); err != nil {
			return err
		}
		if !bits {
			copy(p.Data, b.Data)
			continue
		}
		for j := range p.Data {
			p.Data[j] = math.Float64frombits(binary.LittleEndian.Uint64(b.Bits[8*j:]))
		}
	}
	return nil
}

// sameShape reports a stored rows×cols parameter i that p cannot take.
func sameShape(i, rows, cols int, p *tensor.Tensor) error {
	if rows != p.Rows || cols != p.Cols {
		return fmt.Errorf("nn: parameter %d shape mismatch: stored %d×%d, model %d×%d",
			i, rows, cols, p.Rows, p.Cols)
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

const (
	checkpointMagic   = "cptgpt-nn/2" // values in Blob.Bits
	checkpointMagicV1 = "cptgpt-nn/1" // values in Blob.Data; still read
)

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
	if ck.Magic != checkpointMagic && ck.Magic != checkpointMagicV1 {
		return fmt.Errorf("nn: bad checkpoint magic %q", ck.Magic)
	}
	return LoadBlobs(params, ck.Params, ck.Magic == checkpointMagic)
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

// CopyParams copies values from src parameters into dst (count- and
// shape-checked) — the warm-start primitive behind transfer learning
// (Design 3).
func CopyParams(dst, src []*tensor.Tensor) error {
	if len(src) != len(dst) {
		return fmt.Errorf("nn: %d parameters stored, model has %d", len(src), len(dst))
	}
	for i, s := range src {
		if err := sameShape(i, s.Rows, s.Cols, dst[i]); err != nil {
			return err
		}
		copy(dst[i].Data, s.Data)
	}
	return nil
}

// NumParams returns the total scalar parameter count of params.
func NumParams(params []*tensor.Tensor) int {
	var n int
	for _, p := range params {
		n += p.Numel()
	}
	return n
}
