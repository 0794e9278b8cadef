// Package cyberhd is a Go implementation of CyberHD — "Scalable and
// Efficient Hyperdimensional Computing for Network Intrusion Detection"
// (DAC 2023) — together with every substrate its evaluation depends on:
// hyperdimensional encoders and classifiers with dynamic dimension
// regeneration, quantized inference, fault injection, DNN/SVM baselines,
// a packet→flow→feature network substrate, synthetic reconstructions of
// the four evaluation datasets, and a streaming detection engine.
//
// This root package is the stable facade. The typical workflow:
//
//	ds := cyberhd.NSLKDD(20000, 42)
//	det, err := cyberhd.TrainDetector(ds, cyberhd.DefaultConfig())
//	class := det.Classify(features)
//
// Live traffic takes a config and one call: Serve pumps any PacketSource
// through the engine the config describes and fans alerts to sinks (see
// serve.go and the serving-runtime section of ARCHITECTURE.md):
//
//	cfg := det.EngineConfig()
//	cfg.BatchSize = 64
//	cfg.Sinks = []cyberhd.AlertSink{cyberhd.NewJSONLSink(os.Stdout)}
//	stats, err := cyberhd.Serve(ctx, cfg, source)
//
// Lower-level control (custom encoders, quantization, fault injection,
// experiment reproduction) is exposed through type aliases into the
// implementation packages, so the full system is scriptable from here.
package cyberhd

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"cyberhd/internal/bitpack"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
	"cyberhd/internal/netflow"
	"cyberhd/internal/pipeline"
	"cyberhd/internal/quantize"
	"cyberhd/internal/traffic"
)

// Re-exported core types. Aliases keep the implementation internal while
// giving users stable names rooted at this package.
type (
	// Dataset is a labeled feature table (see NSLKDD, UNSWNB15,
	// CICIDS2017, CICIDS2018, LoadCSV).
	Dataset = datasets.Dataset
	// Normalizer carries train-split feature statistics.
	Normalizer = datasets.Normalizer
	// Model is a trained HDC classifier.
	Model = core.Model
	// TrainOptions configures HDC training (core semantics: RegenCycles=0
	// is a static BaselineHD model).
	TrainOptions = core.Options
	// Encoder maps feature vectors into hyperspace.
	Encoder = encoder.Encoder
	// QuantizedModel is a reduced-precision model for edge deployment.
	QuantizedModel = quantize.Model
	// QuantizedLive pairs a COWModel with re-quantized packed snapshots:
	// online feedback retrains the float working copy and every published
	// version carries a freshly packed class memory. Engines build one
	// automatically when EngineConfig.Quantize is set and the model is a
	// COWModel.
	QuantizedLive = quantize.Live
	// Width is a quantization bitwidth (1, 2, 4, 8, 16 or 32).
	Width = bitpack.Width
	// Engine is the streaming NIDS pipeline; Alert its verdict type.
	Engine = pipeline.Engine
	// ShardedEngine is the multi-core streaming pipeline: flow-hash
	// partitioned per-core engines with merged stats (NewStream builds
	// one when EngineConfig.Shards > 1).
	ShardedEngine = pipeline.Sharded
	// EngineConfig configures the stream NewStream builds; start from
	// Detector.EngineConfig.
	EngineConfig = pipeline.Config
	// EngineStats is the engine counter snapshot returned by Stats.
	EngineStats = pipeline.Stats
	// COWModel is the concurrency-safe copy-on-write model wrapper:
	// classification reads immutable atomic snapshots while online
	// feedback publishes new versions (see NewCOWModel).
	COWModel = core.COWModel
	// ModelSnapshot is one immutable published model version.
	ModelSnapshot = core.Snapshot
	// Alert is one non-benign detection.
	Alert = pipeline.Alert
	// Packet is a raw packet record for the streaming engine.
	Packet = netflow.Packet
	// Addr is a packet endpoint address: 16 bytes, IPv4 stored v4-mapped
	// (see AddrV4, ParseAddr).
	Addr = netflow.Addr
	// FlowKey identifies a bidirectional flow (the canonical 5-tuple).
	FlowKey = netflow.FlowKey
	// TrafficConfig parameterizes the synthetic traffic generator.
	TrafficConfig = traffic.Config
	// TrafficStream is a generated labeled capture.
	TrafficStream = traffic.Stream
)

// Quantization widths.
const (
	W1  = bitpack.W1
	W2  = bitpack.W2
	W4  = bitpack.W4
	W8  = bitpack.W8
	W16 = bitpack.W16
	W32 = bitpack.W32
)

// Dataset constructors (synthetic reconstructions; see the Datasets
// section of README.md for the substitution rationale).
var (
	// NSLKDD synthesizes the 41-feature, 5-class NSL-KDD reconstruction.
	NSLKDD = datasets.NSLKDD
	// UNSWNB15 synthesizes the 42-feature, 10-class UNSW-NB15
	// reconstruction.
	UNSWNB15 = datasets.UNSWNB15
	// CICIDS2017 derives the 78-feature, 8-class CIC-IDS-2017
	// reconstruction from simulated packet traffic.
	CICIDS2017 = datasets.CICIDS2017
	// CICIDS2018 derives the 7-class CSE-CIC-IDS-2018 reconstruction.
	CICIDS2018 = datasets.CICIDS2018
	// DatasetByName builds any of the four by canonical name.
	DatasetByName = datasets.ByName
	// LoadCSV and SaveCSV persist datasets.
	LoadCSV = datasets.LoadCSV
	// SaveCSV writes a dataset to a CSV file.
	SaveCSV = datasets.SaveCSV
	// GenerateTraffic synthesizes a labeled packet capture.
	GenerateTraffic = traffic.Generate
	// AddrV4 builds an Addr from a numeric IPv4 address (v4-mapped).
	AddrV4 = netflow.AddrV4
	// ParseAddr parses a textual IPv4 or IPv6 address into an Addr.
	ParseAddr = netflow.ParseAddr
	// MustParseAddr is ParseAddr, panicking on error (for literals).
	MustParseAddr = netflow.MustParseAddr
)

// NewRBFEncoder builds the paper's RBF random-feature encoder: inDim input
// features to dim hyperspace dimensions; gamma <= 0 selects the default
// bandwidth.
func NewRBFEncoder(inDim, dim int, gamma float64, seed uint64) Encoder {
	return encoder.NewRBF(inDim, dim, gamma, seed)
}

// Train fits an HDC model on a feature matrix with the given encoder. Most
// callers want TrainDetector instead; this is the low-level entry point.
var Train = core.Train

// Quantize lowers a trained model to the given bitwidth.
func Quantize(m *Model, w Width) (*QuantizedModel, error) {
	return quantize.FromCore(m, w)
}

// Config is the one-call training configuration for TrainDetector.
type Config struct {
	// Dim is the physical hyperspace dimensionality (paper: 512).
	Dim int
	// Epochs is adaptive passes per regeneration cycle.
	Epochs int
	// RegenCycles is the number of drop/regenerate rounds; zero cycles
	// trains a static BaselineHD model.
	RegenCycles int
	// RegenRate is R, the fraction of dimensions dropped per cycle.
	RegenRate float64
	// LearningRate is η for the adaptive update.
	LearningRate float64
	// Gamma is the RBF encoder bandwidth (<= 0: default).
	Gamma float64
	// TrainFraction of samples used for fitting (rest measures TestAccuracy).
	TrainFraction float64
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig returns the paper-calibrated configuration (D = 0.5k,
// R = 20%, 7 regeneration cycles).
func DefaultConfig() Config {
	return Config{
		Dim: 512, Epochs: 8, RegenCycles: 7, RegenRate: 0.2,
		LearningRate: 0.1, TrainFraction: 0.75, Seed: 1,
	}
}

// Detector bundles everything needed to classify live flows: the model,
// the normalizer fitted on its training split, and class names.
type Detector struct {
	// Model is the trained HDC classifier.
	Model *Model
	// Normalizer carries the feature statistics of the training split;
	// every query must be normalized with it before prediction.
	Normalizer *Normalizer
	// ClassNames label the model's class indices.
	ClassNames []string
	// TestAccuracy is the held-out accuracy measured during TrainDetector.
	TestAccuracy float64
}

// TrainDetector splits ds, fits a normalizer and a CyberHD model, and
// reports held-out accuracy.
func TrainDetector(ds *Dataset, cfg Config) (*Detector, error) {
	if cfg.Dim <= 0 {
		cfg.Dim = 512
	}
	if cfg.TrainFraction <= 0 || cfg.TrainFraction >= 1 {
		cfg.TrainFraction = 0.75
	}
	train, test, norm := ds.NormalizedSplit(cfg.TrainFraction, cfg.Seed)
	enc := encoder.NewRBF(train.NumFeatures(), cfg.Dim, cfg.Gamma, cfg.Seed+1)
	m, err := core.Train(enc, train.X, train.Y, core.Options{
		Classes: train.NumClasses(), Epochs: cfg.Epochs,
		RegenCycles: cfg.RegenCycles, RegenRate: cfg.RegenRate,
		LearningRate: cfg.LearningRate, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return nil, err
	}
	return &Detector{
		Model:        m,
		Normalizer:   norm,
		ClassNames:   ds.ClassNames,
		TestAccuracy: m.Evaluate(test.X, test.Y),
	}, nil
}

// Classify normalizes a raw feature vector and returns the predicted class
// name.
func (d *Detector) Classify(features []float32) string {
	x := make([]float32, len(features))
	copy(x, features)
	d.Normalizer.ApplyVec(x)
	return d.ClassNames[d.Model.Predict(x)]
}

// NewCOWModel wraps a trained model in copy-on-write snapshots, making
// concurrent classification and online feedback race-free: readers load
// an immutable (encoder, class-matrix) snapshot through one atomic
// pointer read; Update builds the next version and swaps it in. The
// wrapped model becomes the wrapper's private working copy — stop using
// it directly.
func NewCOWModel(m *Model) *COWModel { return core.NewCOWModel(m) }

// EffectiveDim reports the detector's effective dimensionality D* (physical
// dims plus regenerated dims — the paper's headline metric).
func (d *Detector) EffectiveDim() int { return d.Model.EffectiveDim }

// String summarizes the detector.
func (d *Detector) String() string {
	return fmt.Sprintf("cyberhd.Detector{classes=%d, D=%d, D*=%d, testAcc=%.2f%%}",
		len(d.ClassNames), d.Model.Dim(), d.Model.EffectiveDim, 100*d.TestAccuracy)
}

// detectorState is the gob wire format of a Detector (the model travels
// through core's own serializer).
type detectorState struct {
	Version      int
	ClassNames   []string
	Mean, InvStd []float32
	TestAccuracy float64
	Model        []byte
}

// Save serializes the detector — model, normalizer, class names — so a
// deployment can reload it with LoadDetector and classify identically.
func (d *Detector) Save(w io.Writer) error {
	var model bytes.Buffer
	if err := d.Model.Save(&model); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(&detectorState{
		Version:    1,
		ClassNames: d.ClassNames,
		Mean:       d.Normalizer.Mean, InvStd: d.Normalizer.InvStd,
		TestAccuracy: d.TestAccuracy,
		Model:        model.Bytes(),
	})
}

// SaveFile writes the detector to path.
func (d *Detector) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := d.Save(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadDetector reads a detector written by Detector.Save.
func LoadDetector(r io.Reader) (*Detector, error) {
	var state detectorState
	if err := gob.NewDecoder(r).Decode(&state); err != nil {
		return nil, fmt.Errorf("cyberhd: decoding detector: %w", err)
	}
	if state.Version != 1 {
		return nil, fmt.Errorf("cyberhd: unsupported detector version %d", state.Version)
	}
	m, err := core.Load(bytes.NewReader(state.Model))
	if err != nil {
		return nil, err
	}
	return &Detector{
		Model:        m,
		Normalizer:   &datasets.Normalizer{Mean: state.Mean, InvStd: state.InvStd},
		ClassNames:   state.ClassNames,
		TestAccuracy: state.TestAccuracy,
	}, nil
}

// LoadDetectorFile reads a detector from path.
func LoadDetectorFile(path string) (*Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadDetector(f)
}
