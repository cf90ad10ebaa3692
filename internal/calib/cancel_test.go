package calib

import (
	"encoding/json"
	"math"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
)

// Satellite coverage: predictor.Perturbed composed with calib.Calibrated —
// the exact chain the chaos harness runs under a predictor_bias fault.
// A constant injected per-model bias must be cancelled by calibration to
// within tolerance, and the whole closed loop must be deterministic.
func TestCalibrationCancelsInjectedBias(t *testing.T) {
	oracle := predictor.Oracle{Profile: gpusim.A100Profile()}
	m := dnn.Get(dnn.ResNet50)
	groups := []predictor.Group{
		{{Model: dnn.ResNet50, OpEnd: m.NumOps(), Batch: 4, SeqLen: 1}},
		{{Model: dnn.ResNet50, OpEnd: m.NumOps(), Batch: 8, SeqLen: 1}},
		{{Model: dnn.ResNet50, OpEnd: m.NumOps(), Batch: 16, SeqLen: 1}},
	}

	run := func() (*Calibrated, string) {
		perturbed := predictor.NewPerturbed(oracle, 1, 0, 99)
		perturbed.SetModelBias(dnn.ResNet50, 0.6) // systematic 40% underprediction
		tr := NewTracker(Config{Seed: 17}, []dnn.ModelID{dnn.ResNet50, dnn.VGG16})
		cal := NewCalibrated(perturbed, tr)

		// Closed loop: admission predicts through the calibrated chain, the
		// query then actually takes the oracle's (true) latency, and that
		// feedback pair flows back into the tracker.
		for i := 0; i < 200; i++ {
			g := groups[i%len(groups)]
			predicted := cal.Predict(g)
			observed := oracle.Predict(g)
			tr.Observe(0, predicted, observed)
		}
		b, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return cal, string(b)
	}

	cal, snapA := run()
	for _, g := range groups {
		truth := oracle.Predict(g)
		got := cal.Predict(g)
		if rel := math.Abs(got-truth) / truth; rel > 0.05 {
			t.Errorf("batch %d: calibrated prediction %v vs truth %v (%.1f%% off), bias not cancelled",
				g[0].Batch, got, truth, 100*rel)
		}
	}
	// The learned slope is the inverse of the injected bias.
	if s := cal.tr.svcs[0].slope; math.Abs(s-1/0.6) > 0.1 {
		t.Errorf("slope %v, want ~%v (inverse of injected bias)", s, 1/0.6)
	}
	// The co-located unbiased service's correction never left the identity.
	if s := cal.tr.svcs[1].slope; s != 1 {
		t.Errorf("unbiased service slope drifted to %v", s)
	}

	_, snapB := run()
	if snapA != snapB {
		t.Fatalf("closed calibration loop not deterministic:\n%s\n%s", snapA, snapB)
	}
}
