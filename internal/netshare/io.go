package netshare

import (
	"fmt"
	"io"

	"cptgpt/internal/nn"
)

// Save serializes the model's weights (both players) to w; the
// configuration is the caller's to keep, as Load takes it back.
func (m *Model) Save(w io.Writer) error {
	return nn.SaveParams(w, append(m.GenParams(), m.DiscParams()...))
}

// Load reads weights from r into a model rebuilt from cfg; cfg must match
// the architecture the checkpoint was written with. The model is built
// with zero weights, which the stored ones overwrite.
func Load(r io.Reader, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newModel(cfg, nil)
	params := append(m.GenParams(), m.DiscParams()...)
	if err := nn.LoadParams(r, params); err != nil {
		return nil, fmt.Errorf("netshare: %w", err)
	}
	return m, nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error { return nn.SaveFile(path, m.Save) }

// LoadFile reads a model from path.
func LoadFile(path string, cfg Config) (*Model, error) {
	return nn.LoadFile(path, func(r io.Reader) (*Model, error) { return Load(r, cfg) })
}
