package experiments

import (
	"testing"
	"time"

	"cyberhd/internal/baseline/mlp"
	"cyberhd/internal/baseline/svm"
	"cyberhd/internal/core"
	"cyberhd/internal/datasets"
	"cyberhd/internal/encoder"
)

// TestProbeOrdering is a slow calibration check of the paper's central
// claim on every synthetic paper dataset: CyberHD at D=512 (dimension
// regeneration) beats static-encoder HD at the same D=512 and scores at
// least static HD at D=4096. The DNN and linear SVM rows are logged for
// the full five-model picture but not asserted.
func TestProbeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("probe is slow; skipped in -short")
	}
	for _, name := range datasets.PaperDatasets() {
		n := 8000
		if name == "cic-ids-2017" || name == "cic-ids-2018" {
			n = 3000
		}
		d, ok := datasets.ByName(name, n, 42)
		if !ok {
			t.Fatalf("unknown dataset %q", name)
		}
		train, test, _ := d.NormalizedSplit(0.75, 1)
		f := train.NumFeatures()
		k := train.NumClasses()

		t0 := time.Now()
		hd05, err := core.Train(encoder.NewRBF(f, 512, 0, 2), train.X, train.Y, core.Options{Classes: k, Epochs: 15, LearningRate: 0.1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tHD05 := time.Since(t0)
		t0 = time.Now()
		hd4k, err := core.Train(encoder.NewRBF(f, 4096, 0, 2), train.X, train.Y, core.Options{Classes: k, Epochs: 15, LearningRate: 0.1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tHD4k := time.Since(t0)
		t0 = time.Now()
		cyber, err := core.Train(encoder.NewRBF(f, 512, 0, 2), train.X, train.Y, core.Options{Classes: k, Epochs: 8, RegenCycles: 7, RegenRate: 0.2, LearningRate: 0.1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tCyber := time.Since(t0)
		t0 = time.Now()
		dnn, err := mlp.Train(train.X, train.Y, k, mlp.Options{Epochs: 15, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tDNN := time.Since(t0)
		t0 = time.Now()
		lin, err := svm.TrainLinear(train.X, train.Y, k, svm.LinearOptions{Epochs: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		tSVM := time.Since(t0)

		accHD05, accHD4k, accCyber := hd05.Evaluate(test.X, test.Y), hd4k.Evaluate(test.X, test.Y), cyber.Evaluate(test.X, test.Y)
		t.Logf("%-14s n=%d f=%d k=%d | hd05=%.3f hd4k=%.3f cyber=%.3f dnn=%.3f svm=%.3f | t: %.1fs %.1fs %.1fs %.1fs %.1fs",
			name, train.Len(), f, k,
			accHD05, accHD4k, accCyber,
			dnn.Evaluate(test.X, test.Y), lin.Evaluate(test.X, test.Y),
			tHD05.Seconds(), tHD4k.Seconds(), tCyber.Seconds(), tDNN.Seconds(), tSVM.Seconds())
		if accCyber <= accHD05 {
			t.Errorf("%s: CyberHD@512 %.4f does not beat static HD@512 %.4f", name, accCyber, accHD05)
		}
		if accCyber < accHD4k {
			t.Errorf("%s: CyberHD@512 %.4f scores below static HD@4096 %.4f", name, accCyber, accHD4k)
		}
	}
}
