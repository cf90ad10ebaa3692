package predictor

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"abacus/internal/dnn"
)

func trainedForPersist(t *testing.T, logTarget bool) (*Predictor, []Sample) {
	t.Helper()
	cfg := DefaultSamplerConfig()
	cfg.Runs = 1
	samples := Collect([]dnn.ModelID{dnn.ResNet50, dnn.InceptionV3}, 2, 80, cfg)
	tc := TrainConfig{Technique: TechMLP, Epochs: 40, LogTarget: logTarget, Seed: 1}
	p, err := Train(samples, NewCodec(), tc)
	if err != nil {
		t.Fatal(err)
	}
	return p, samples
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, logTarget := range []bool{false, true} {
		p, samples := trainedForPersist(t, logTarget)
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			g := samples[i].Group
			if got, want := loaded.Predict(g), p.Predict(g); got != want {
				t.Fatalf("logTarget=%v sample %d: loaded %v != original %v", logTarget, i, got, want)
			}
		}
		// Batched predictions must survive the round trip too.
		groups := []Group{samples[0].Group, samples[1].Group}
		a, b := loaded.PredictBatch(groups), p.PredictBatch(groups)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("batch[%d] %v != %v", i, a[i], b[i])
			}
		}
	}
}

func TestSaveRejectsNonMLP(t *testing.T) {
	cfg := DefaultSamplerConfig()
	cfg.Runs = 1
	samples := Collect([]dnn.ModelID{dnn.ResNet50, dnn.InceptionV3}, 2, 30, cfg)
	p, err := Train(samples, NewCodec(), TrainConfig{Technique: TechLinearRegression, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(&bytes.Buffer{}); err == nil {
		t.Error("persisting a linear model should error")
	}
}

// validState is a loadable predictor state for the default codec (seven
// models, four slots: 23 features) with distinctive values that the corrupt
// cases below rewrite.
func validState() string {
	w := NewCodec().Width()
	fill := func(n int, v string) string { return strings.TrimSuffix(strings.Repeat(v+",", n), ",") }
	return fmt.Sprintf(`{"num_models":7,"slots":4,"mlp":{"dims":[%d,1],"weights":[[%s]],"biases":[[0.5]],`+
		`"feat_mean":[%s],"feat_std":[%s],"target_mean":0.75,"target_std":2}}`,
		w, fill(w, "0.25"), fill(w, "0.125"), fill(w, "3"))
}

func TestLoadAcceptsValidState(t *testing.T) {
	p, err := Load(strings.NewReader(validState()))
	if err != nil {
		t.Fatal(err)
	}
	if lat := p.Predict(pairRes50Res152(8)); math.IsNaN(lat) || math.IsInf(lat, 0) {
		t.Errorf("loaded model predicts %v", lat)
	}
}

// TestLoadRejectsCorrupt holds Load to refusing every state that could not
// serve: malformed JSON, bad geometry, an MLP narrower or wider than its
// codec, and a scale or value that standardisation or prediction cannot
// use. Non-finite literals are refused by encoding/json itself.
func TestLoadRejectsCorrupt(t *testing.T) {
	valid := validState()
	cases := []struct{ name, state string }{
		{"not json", "{not json"},
		{"no models", `{"num_models":0,"slots":4,"mlp":{}}`},
		{"no mlp", `{"num_models":7,"slots":4}`},
		{"one dim", `{"num_models":7,"slots":4,"mlp":{"dims":[3],"weights":[],"biases":[]}}`},
		{"weight shape", `{"num_models":7,"slots":4,"mlp":{"dims":[3,1],"weights":[[1,2]],"biases":[[0]]}}`},
		{"input width below codec", `{"num_models":7,"slots":4,"mlp":{"dims":[3,1],"weights":[[1,2,3]],"biases":[[0]],` +
			`"feat_mean":[0,0,0],"feat_std":[1,1,1],"target_mean":0,"target_std":1}}`},
		{"codec wider than mlp", strings.Replace(valid, `"slots":4`, `"slots":5`, 1)},
		{"zero feat std", strings.Replace(valid, `"feat_std":[3`, `"feat_std":[0`, 1)},
		{"negative feat std", strings.Replace(valid, `"feat_std":[3`, `"feat_std":[-3`, 1)},
		{"zero target std", strings.Replace(valid, `"target_std":2`, `"target_std":0`, 1)},
		{"nan weight", strings.Replace(valid, "0.25", "NaN", 1)},
		{"inf bias", strings.Replace(valid, "0.5", "1e999", 1)},
		{"inf feat mean", strings.Replace(valid, "0.125", "-1e999", 1)},
		{"inf feat std", strings.Replace(valid, `"feat_std":[3`, `"feat_std":[1e999`, 1)},
		{"inf target mean", strings.Replace(valid, "0.75", "1e999", 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.state == valid {
				t.Fatal("case did not corrupt the state")
			}
			if _, err := Load(strings.NewReader(c.state)); err == nil {
				t.Error("corrupt state accepted")
			}
		})
	}
}
