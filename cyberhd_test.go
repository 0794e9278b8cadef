package cyberhd

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"cyberhd/internal/core"
	"cyberhd/internal/encoder"
)

func TestTrainDetectorQuickstart(t *testing.T) {
	ds := NSLKDD(3000, 42)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det.TestAccuracy < 0.75 {
		t.Errorf("test accuracy = %v, want >= 0.75", det.TestAccuracy)
	}
	if det.EffectiveDim() <= 512 {
		t.Errorf("EffectiveDim = %d, want > physical 512", det.EffectiveDim())
	}
	class := det.Classify(ds.X.Row(0))
	found := false
	for _, c := range det.ClassNames {
		if c == class {
			found = true
		}
	}
	if !found {
		t.Errorf("Classify returned unknown class %q", class)
	}
	if s := det.String(); !strings.Contains(s, "cyberhd.Detector") {
		t.Errorf("String() = %q", s)
	}
}

func TestTrainDetectorDefaultsApplied(t *testing.T) {
	ds := NSLKDD(1200, 1)
	det, err := TrainDetector(ds, Config{}) // all zero: defaults kick in
	if err != nil {
		t.Fatal(err)
	}
	if det.Model.Dim() != 512 {
		t.Errorf("default Dim = %d", det.Model.Dim())
	}
}

func TestQuantizeFacade(t *testing.T) {
	ds := NSLKDD(1500, 2)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []Width{W1, W8, W32} {
		q, err := Quantize(det.Model, w)
		if err != nil {
			t.Fatal(err)
		}
		if q.Dim() != det.Model.Dim() {
			t.Errorf("w=%d: dim %d", w, q.Dim())
		}
	}
	if _, err := Quantize(det.Model, Width(3)); err == nil {
		t.Error("invalid width accepted")
	}
}

func TestDetectorEngineOnLiveTraffic(t *testing.T) {
	ds := CICIDS2017(1200, 3)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	cfg := det.EngineConfig()
	cfg.OnAlert = func(Alert) { alerts++ }
	eng, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})
	for i := range live.Packets {
		eng.Feed(live.Packets[i])
	}
	eng.Flush()
	if alerts == 0 {
		t.Error("no alerts on attack traffic")
	}
}

// TestShardedEngineFacade runs the multi-core engine with a COW-wrapped
// model from the public API and checks its merged stats against a single
// engine over the same capture.
func TestShardedEngineFacade(t *testing.T) {
	ds := CICIDS2017(1200, 3)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := GenerateTraffic(TrafficConfig{Sessions: 300, Seed: 77})

	single, err := NewStream(det.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Packets {
		single.Feed(live.Packets[i])
	}
	single.Flush()
	want := single.Stats()

	cow := NewCOWModel(det.Model)
	cfg := det.EngineConfig()
	cfg.Model, cfg.Shards, cfg.BatchSize = cow, 4, 32
	sh, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sh.(*ShardedEngine); !ok {
		t.Fatalf("Shards=4 built %T, want *ShardedEngine", sh)
	}
	for i := range live.Packets {
		sh.Feed(live.Packets[i])
	}
	sh.Close()
	got := sh.Stats()
	if got.Flows != want.Flows || got.Alerts != want.Alerts {
		t.Fatalf("sharded %+v != single %+v", got, want)
	}
	for c := range want.ByClass {
		if got.ByClass[c] != want.ByClass[c] {
			t.Fatalf("class %d: sharded %d != single %d", c, got.ByClass[c], want.ByClass[c])
		}
	}
	if cow.Version() != 1 {
		t.Fatalf("classification-only run published %d versions, want 1", cow.Version())
	}
}

func TestDatasetByNameFacade(t *testing.T) {
	for _, name := range []string{"nsl-kdd", "unsw-nb15"} {
		d, ok := DatasetByName(name, 200, 1)
		if !ok || d.Len() != 200 {
			t.Errorf("DatasetByName(%q) failed", name)
		}
	}
}

func TestCSVFacade(t *testing.T) {
	d := UNSWNB15(150, 5)
	path := t.TempDir() + "/u.csv"
	if err := SaveCSV(path, d); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 150 {
		t.Fatalf("round trip lost rows: %d", back.Len())
	}
}

func TestLowLevelTrainFacade(t *testing.T) {
	ds := NSLKDD(800, 7)
	train, test, _ := ds.NormalizedSplit(0.8, 1)
	enc := NewRBFEncoder(train.NumFeatures(), 256, 0, 2)
	m, err := Train(enc, train.X, train.Y, TrainOptions{Classes: train.NumClasses(), Epochs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Evaluate(test.X, test.Y); acc < 0.5 {
		t.Errorf("low-level train accuracy = %v", acc)
	}
}

func TestDetectorSaveLoad(t *testing.T) {
	ds := NSLKDD(1500, 8)
	det, err := TrainDetector(ds, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/det.gob"
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDetectorFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TestAccuracy != det.TestAccuracy {
		t.Errorf("TestAccuracy changed: %v -> %v", det.TestAccuracy, back.TestAccuracy)
	}
	for i := 0; i < 200; i++ {
		if det.Classify(ds.X.Row(i)) != back.Classify(ds.X.Row(i)) {
			t.Fatalf("prediction diverged at row %d", i)
		}
	}
	// Engines require flow-feature detectors: an NSL-KDD (41-feature)
	// detector must be rejected up front, and a reloaded CIC detector must
	// drive an engine.
	if _, err := NewStream(back.EngineConfig()); err == nil {
		t.Fatal("engine accepted a non-flow-feature detector")
	}
	cic, err := TrainDetector(CICIDS2017(800, 9), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := cic.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	cicBack, err := LoadDetector(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewStream(cicBack.EngineConfig())
	if err != nil {
		t.Fatal(err)
	}
	live := GenerateTraffic(TrafficConfig{Sessions: 50, Seed: 5})
	for i := range live.Packets {
		eng.Feed(live.Packets[i])
	}
	eng.Flush()
}

// TestTrainedSnapshotPinned is the training-numerics oracle: a small CIC
// detector must train to exactly the model recorded before the training
// kernels were vectorized. It hashes everything a v2 snapshot carries —
// class matrix, cached row norms, D*, per-cycle history, encoder state
// with its RNG continuation — in a fixed binary layout after a
// SaveSnapshot/DecodeSnapshot round trip. (The snapshot bytes themselves
// are not hashed: gob numbers wire types per process, so they depend on
// what the test binary encoded before.)
func TestTrainedSnapshotPinned(t *testing.T) {
	det, err := TrainDetector(CICIDS2017(600, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.SaveSnapshot(&buf, core.NewCOWModel(det.Model)); err != nil {
		t.Fatal(err)
	}
	m, _, err := core.DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st, err := encoder.CaptureState(m.Enc)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(v any) {
		if err := binary.Write(h, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []any{m.Class.Data, m.Scorer().Norms(), int64(m.EffectiveDim)} {
		put(v)
	}
	for _, c := range m.History {
		put([]int64{int64(c.Cycle), int64(c.Dropped), int64(c.EffectiveDim)})
		put(c.TrainAcc)
	}
	for _, v := range []any{st.RNG, st.Base, st.Bias, st.Gamma} {
		put(v)
	}
	const want = "572f49c9c0db8964cd550301cfe1ec26e4622f20be12f33a09ce8eb0c139442a"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("trained model digest %s, want %s", got, want)
	}
	if got := math.Float64bits(det.TestAccuracy); got != 0x3fefcef2341ea89f {
		t.Errorf("test accuracy %v (bits %#x), want bits 0x3fefcef2341ea89f", det.TestAccuracy, got)
	}
}
