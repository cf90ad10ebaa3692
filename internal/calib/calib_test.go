package calib

import (
	"encoding/json"
	"math"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
)

var twoModels = []dnn.ModelID{dnn.ResNet50, dnn.VGG16}

// feed drives one service through n feedback rounds against a ground truth
// latency truth(raw), always observing against the tracker's own corrected
// prediction — the same closed loop the runtime runs.
func feed(t *Tracker, service, n int, raw float64, truth func(float64) float64) {
	for i := 0; i < n; i++ {
		// A little deterministic spread in the raw predictions so the batch
		// fit sees variance in x.
		x := raw * (1 + 0.05*float64(i%5))
		corrected := t.Correct(service, x)
		t.Observe(service, corrected, truth(x))
	}
}

func TestTrackerConvergesOnMultiplicativeBias(t *testing.T) {
	tr := NewTracker(Config{Seed: 7}, twoModels)
	// Service 0's true latency is 1.6x what the model predicts.
	feed(tr, 0, 400, 10, func(x float64) float64 { return 1.6 * x })

	for _, x := range []float64{8, 10, 14} {
		got := tr.Correct(0, x)
		want := 1.6 * x
		if math.Abs(got-want) > 0.05*want {
			t.Fatalf("Correct(0, %v) = %v, want ~%v", x, got, want)
		}
	}
	// Service 1 never observed anything: identity.
	if got := tr.Correct(1, 10); got != 10 {
		t.Fatalf("untouched service corrected 10 -> %v, want identity", got)
	}
}

func TestTrackerConvergesOnAffineDrift(t *testing.T) {
	tr := NewTracker(Config{Seed: 3}, twoModels)
	feed(tr, 0, 600, 20, func(x float64) float64 { return 0.7*x + 5 })

	for _, x := range []float64{15, 20, 30} {
		got := tr.Correct(0, x)
		want := 0.7*x + 5
		if math.Abs(got-want) > 0.08*want {
			t.Fatalf("Correct(0, %v) = %v, want ~%v", x, got, want)
		}
	}
}

func TestTrackerStableWhenAlreadyAccurate(t *testing.T) {
	tr := NewTracker(Config{Seed: 1}, twoModels)
	feed(tr, 0, 300, 12, func(x float64) float64 { return x })

	if got := tr.Correct(0, 12); math.Abs(got-12) > 0.3 {
		t.Fatalf("accurate service drifted: corrected 12 -> %v", got)
	}
	if tr.svcs[0].slope < 0.95 || tr.svcs[0].slope > 1.05 {
		t.Fatalf("slope %v strayed from 1 on accurate feedback", tr.svcs[0].slope)
	}
}

func TestIdentityBeforeMinSamples(t *testing.T) {
	tr := NewTracker(Config{Seed: 1}, twoModels)
	feed(tr, 0, minSamples-1, 10, func(x float64) float64 { return 3 * x })
	if got := tr.Correct(0, 10); got != 10 {
		t.Fatalf("corrected 10 -> %v before minSamples, want identity", got)
	}
	feed(tr, 0, 100, 10, func(x float64) float64 { return 3 * x })
	if got := tr.Correct(0, 10); got <= 10 {
		t.Fatalf("corrected 10 -> %v after minSamples, want > 10", got)
	}
}

func TestCorrectionFloorAndClamps(t *testing.T) {
	tr := NewTracker(Config{Seed: 2}, twoModels)
	// Truth is a tiny fraction of the prediction; the slope clamp (minSlope
	// 0.2) must floor the correction well above zero.
	feed(tr, 0, 400, 10, func(x float64) float64 { return 0.01 * x })
	for _, x := range []float64{1, 5, 10} {
		got := tr.Correct(0, x)
		if got <= 0 {
			t.Fatalf("Correct(0, %v) = %v, must stay positive", x, got)
		}
		if got < minSlope*x-1e-9 {
			t.Fatalf("Correct(0, %v) = %v below minSlope floor %v", x, got, minSlope*x)
		}
	}
	if s := tr.svcs[0].slope; s < minSlope-1e-9 {
		t.Fatalf("slope %v below minSlope clamp", s)
	}
}

func TestObserveIgnoresGarbage(t *testing.T) {
	tr := NewTracker(Config{Seed: 1}, twoModels)
	tr.Observe(0, 0, 10)
	tr.Observe(0, -5, 10)
	tr.Observe(0, 10, -1)
	tr.Observe(0, 10, math.NaN())
	tr.Observe(0, 10, math.Inf(1))
	if tr.svcs[0].samples != 0 {
		t.Fatalf("garbage observations recorded: samples=%d", tr.svcs[0].samples)
	}
}

func TestCorrectGroupBlendsServices(t *testing.T) {
	tr := NewTracker(Config{Seed: 9}, twoModels)
	feed(tr, 0, 200, 10, func(x float64) float64 { return 2 * x })
	// Service 1 stays identity (no feedback).
	g := predictor.Group{
		{Model: dnn.ResNet50, OpEnd: 1, Batch: 1},
		{Model: dnn.VGG16, OpEnd: 1, Batch: 1},
	}
	v := 10.0
	got := tr.CorrectGroup(g, v)
	want := (tr.Correct(0, v) + v) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("CorrectGroup = %v, want blend %v", got, want)
	}
	// A model outside the deployment contributes the identity.
	foreign := predictor.Group{{Model: dnn.Bert, OpEnd: 1, Batch: 1}}
	if got := tr.CorrectGroup(foreign, v); got != v {
		t.Fatalf("foreign-model group corrected %v -> %v, want identity", v, got)
	}
}

func TestTrackerDeterminism(t *testing.T) {
	run := func() string {
		tr := NewTracker(Config{Seed: 42}, twoModels)
		feed(tr, 0, 500, 10, func(x float64) float64 { return 1.3*x + 2 })
		feed(tr, 1, 300, 25, func(x float64) float64 { return 0.8 * x })
		b, err := json.Marshal(tr.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("snapshots differ across identical runs:\n%s\n%s", a, b)
	}
}

func TestSnapshotResidualQuantiles(t *testing.T) {
	tr := NewTracker(Config{Seed: 11}, twoModels)
	feed(tr, 0, 100, 10, func(x float64) float64 { return x + 1 })
	st := tr.Snapshot()
	if !st.Enabled {
		t.Fatal("snapshot not enabled")
	}
	s0 := st.Services[0]
	if s0.Model != dnn.ResNet50.String() {
		t.Fatalf("service 0 model = %q", s0.Model)
	}
	if s0.Samples != 100 || s0.Reservoir == 0 {
		t.Fatalf("samples=%d reservoir=%d", s0.Samples, s0.Reservoir)
	}
	// Early pairs were recorded before the correction converged, so residuals
	// only need to be finite and ordered.
	if s0.ResidualP99MS < s0.ResidualP50MS {
		t.Fatalf("p99 %v < p50 %v", s0.ResidualP99MS, s0.ResidualP50MS)
	}
}

func TestReservoirBoundedAndSeeded(t *testing.T) {
	fill := func(seed uint64) ([]float64, uint64) {
		r := newReservoir(8, seed, 1)
		for i := 0; i < 1000; i++ {
			r.add(float64(i), float64(2*i))
		}
		return append([]float64(nil), r.xs...), r.n
	}
	a, n := fill(7)
	if len(a) != 8 || n != 1000 {
		t.Fatalf("len=%d offered=%d, want 8 and 1000", len(a), n)
	}
	b, _ := fill(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at slot %d: %v vs %v", i, a[i], b[i])
		}
	}
	c, _ := fill(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical reservoirs")
	}
}

func TestConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTracker accepted empty model list")
		}
	}()
	NewTracker(Config{}, nil)
}

func TestOnUpdateFires(t *testing.T) {
	var fired []int
	tr := NewTracker(Config{
		Seed:     1,
		OnUpdate: func(svc int) { fired = append(fired, svc) },
	}, twoModels)
	feed(tr, 0, 100, 10, func(x float64) float64 { return 2 * x })
	if len(fired) == 0 {
		t.Fatal("OnUpdate never fired despite corrections moving")
	}
	for _, svc := range fired {
		if svc != 0 {
			t.Fatalf("OnUpdate fired for service %d, only 0 had feedback", svc)
		}
	}
}

func TestCalibratedWrapper(t *testing.T) {
	oracle := predictor.Oracle{Profile: gpusim.A100Profile()}
	tr := NewTracker(Config{Seed: 4}, twoModels)
	cal := NewCalibrated(oracle, tr)

	g := predictor.Group{{Model: dnn.ResNet50, OpEnd: 10, Batch: 1, SeqLen: 1}}
	raw := oracle.Predict(g)
	if got := cal.Predict(g); got != raw {
		t.Fatalf("uncalibrated wrapper changed prediction: %v != %v", got, raw)
	}

	feed(tr, 0, 300, raw, func(x float64) float64 { return 2 * x })
	got := cal.Predict(g)
	if math.Abs(got-2*raw) > 0.1*2*raw {
		t.Fatalf("calibrated Predict = %v, want ~%v", got, 2*raw)
	}
	batch := cal.PredictBatch([]predictor.Group{g, g})
	if len(batch) != 2 || batch[0] != got || batch[1] != got {
		t.Fatalf("PredictBatch %v inconsistent with Predict %v", batch, got)
	}
}
