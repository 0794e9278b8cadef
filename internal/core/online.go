package core

import (
	"fmt"

	"cyberhd/internal/encoder"
	"cyberhd/internal/hdc"
)

// OnlineTrainer fits a Model one sample at a time — the deployment mode
// for NIDS backbones where traffic arrives as an unbounded stream and a
// full training matrix never exists. It applies the same similarity-
// weighted update as batch training (OnlineHD-style single-pass learning);
// periodic Regenerate calls bring in CyberHD's dynamic dimensionality.
type OnlineTrainer struct {
	m       *Model
	sims    []float64
	scratch []float32
	seen    int
	updates int
	drop    int
}

// NewOnlineTrainer builds an online trainer over a fresh model.
func NewOnlineTrainer(enc encoder.Encoder, opts Options) (*OnlineTrainer, error) {
	opts.defaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	m := &Model{
		Enc:          enc,
		Class:        hdc.NewMatrix(opts.Classes, enc.Dim()),
		EffectiveDim: enc.Dim(),
		opts:         opts,
	}
	m.refreshNorms()
	drop := int(opts.RegenRate * float64(enc.Dim()))
	return &OnlineTrainer{
		m:       m,
		sims:    make([]float64, opts.Classes),
		scratch: make([]float32, enc.Dim()),
		drop:    drop,
	}, nil
}

// Observe folds one labeled sample into the model and reports whether the
// model changed. The first observation of each class bootstraps its
// hypervector directly.
func (t *OnlineTrainer) Observe(x []float32, label int) (bool, error) {
	if label < 0 || label >= t.m.NumClasses() {
		return false, fmt.Errorf("core: online label %d out of range", label)
	}
	t.seen++
	t.m.Enc.Encode(x, t.scratch)
	row := t.m.Class.Row(label)
	if hdc.Norm(row) == 0 {
		hdc.Axpy(1, t.scratch, row)
		t.m.scorer.RefreshRow(label)
		t.updates++
		return true, nil
	}
	changed := t.m.updateOne(t.scratch, hdc.Norm(t.scratch), label, t.sims)
	if changed {
		t.updates++
	}
	return changed, nil
}

// Regenerate runs one CyberHD drop/regenerate cycle on the live model:
// normalize, variance, drop the R% least significant dimensions, redraw
// their encoder bases, zero the class columns. Subsequent observations
// repopulate the fresh dimensions.
func (t *OnlineTrainer) Regenerate() int {
	if t.drop == 0 {
		return 0
	}
	dims := t.m.insignificantDims(t.drop)
	t.m.Class.ZeroColumns(dims)
	t.m.Enc.Regenerate(dims)
	t.m.EffectiveDim += len(dims)
	t.m.refreshNorms()
	return len(dims)
}

// Model returns the live model (shared, not a copy: predictions interleave
// with observations in online deployments).
func (t *OnlineTrainer) Model() *Model { return t.m }

// Seen returns the number of observed samples; Updates the number that
// changed the model.
func (t *OnlineTrainer) Seen() int { return t.seen }

// Updates returns how many observations modified the model.
func (t *OnlineTrainer) Updates() int { return t.updates }
