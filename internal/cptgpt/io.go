package cptgpt

import (
	"encoding/gob"
	"fmt"
	"io"

	"cptgpt/internal/nn"
	"cptgpt/internal/stats"
)

// modelFile is the gob wire form of a trained model: configuration,
// tokenizer scaling, the released initial-event-type distribution and the
// flat parameter blobs (§4.5: "the trained model weights, along with the
// initial-event-type distribution, will be packaged together and released").
type modelFile struct {
	Magic       string
	Cfg         Config
	Tok         Tokenizer
	InitialDist []float64
	Params      []nn.Blob
}

const (
	modelMagic   = "cptgpt-model/2" // parameter values in nn.Blob.Bits
	modelMagicV1 = "cptgpt-model/1" // parameter values in nn.Blob.Data; still read
)

// Save serializes the model to w.
func (m *Model) Save(w io.Writer) error {
	mf := modelFile{
		Magic:       modelMagic,
		Cfg:         m.Cfg,
		Tok:         m.Tok,
		InitialDist: m.InitialDist,
		Params:      nn.Blobs(m.Params()),
	}
	if err := gob.NewEncoder(w).Encode(&mf); err != nil {
		return fmt.Errorf("cptgpt: encoding model: %w", err)
	}
	return nil
}

// Load reconstructs a model from r, a "/2" file or a "/1" file (see
// nn.Blob). It rejects a file whose parameters do not fill the model or
// whose initial-event distribution is not one finite, non-negative weight
// per event type with a positive sum, so a bad file fails here rather than
// in Generate. It checks the stored values against the configuration's
// parameter count before it builds the model, so a file cannot make it
// allocate more than what the file holds; the model is built with zero
// weights, which the stored ones overwrite.
func Load(r io.Reader) (*Model, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("cptgpt: decoding model: %w", err)
	}
	if mf.Magic != modelMagic && mf.Magic != modelMagicV1 {
		return nil, fmt.Errorf("cptgpt: bad model magic %q", mf.Magic)
	}
	bits := mf.Magic == modelMagic
	if err := checkShape(mf.Cfg, mf.Tok); err != nil {
		return nil, fmt.Errorf("cptgpt: rebuilding model: %w", err)
	}
	stored, err := nn.CheckBlobs(mf.Params, bits)
	if err != nil {
		return nil, fmt.Errorf("cptgpt: model file: %w", err)
	}
	if want := paramCount(mf.Cfg, mf.Tok); float64(stored) != want {
		return nil, fmt.Errorf("cptgpt: model file: %d parameter values stored, its configuration has %.0f", stored, want)
	}
	m := newModel(mf.Cfg, mf.Tok, nil)
	if err := nn.LoadBlobs(m.Params(), mf.Params, bits); err != nil {
		return nil, fmt.Errorf("cptgpt: model file: %w", err)
	}
	if len(mf.InitialDist) != m.Tok.V() {
		return nil, fmt.Errorf("cptgpt: model file: %d initial-event weights for %d event types", len(mf.InitialDist), m.Tok.V())
	}
	if _, err := stats.NewCategorical(mf.InitialDist); err != nil {
		return nil, fmt.Errorf("cptgpt: model file: initial-event distribution: %w", err)
	}
	m.InitialDist = mf.InitialDist
	return m, nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error { return nn.SaveFile(path, m.Save) }

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) { return nn.LoadFile(path, Load) }

// WeightBytes reports the serialized parameter size in bytes (the paper
// quotes 2.9 MB for its 725K-parameter model at float32; ours is float64).
func (m *Model) WeightBytes() int { return 8 * nn.NumParams(m.Params()) }
