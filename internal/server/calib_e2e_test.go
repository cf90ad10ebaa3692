package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"abacus/internal/calib"
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/realtime"
	"abacus/internal/trace"
)

// TestGatewayCalibration runs a live unpaced gateway whose predictor reports
// 60% of ResNet-152's true latency and checks that the online calibration
// loop is visible end to end: the tracker learns an inverse slope for the
// biased service while leaving its neighbour near identity, /statz carries
// the calibration and per-service drift state, and /metrics exposes the
// calibration families in valid exposition format.
func TestGatewayCalibration(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	pert := predictor.NewPerturbed(predictor.Oracle{Profile: gpusim.A100Profile()}, 1, 0, 7)
	pert.SetModelBias(dnn.ResNet152, 0.6)

	c := startGateway(t, Config{
		Models:  models,
		Speedup: realtime.Unpaced,
		Model:   pert,
		Calib:   &calib.Config{Seed: 7},
	})
	arrivals := trace.NewGenerator(models, 7).Poisson(40, 4000)
	// Low concurrency keeps most completions uncontended so the tracker's
	// backlog filter accepts them.
	res, err := RunLoad(context.Background(), LoadConfig{
		Client:      c,
		Models:      models,
		Arrivals:    arrivals,
		Closed:      true,
		Concurrency: 2,
		Requests:    len(arrivals),
		Retry:       &RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.Completed == 0 {
		t.Fatal("no queries completed")
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Calibration == nil || !st.Calibration.Enabled {
		t.Fatalf("calibration state missing from /statz: %+v", st.Calibration)
	}
	if len(st.Calibration.Services) != len(models) {
		t.Fatalf("calibration covers %d services, want %d", len(st.Calibration.Services), len(models))
	}
	biased, healthy := st.Calibration.Services[0], st.Calibration.Services[1]
	if biased.Samples == 0 {
		t.Fatal("biased service collected no feedback samples")
	}
	if biased.Slope < 1.3 {
		t.Errorf("biased service slope %.3f, want > 1.3 (learning 1/0.6)", biased.Slope)
	}
	if healthy.Slope < 0.9 || healthy.Slope > 1.1 {
		t.Errorf("healthy service slope %.3f strayed from identity", healthy.Slope)
	}
	for _, s := range st.Services {
		if s.Margin < 1 {
			t.Errorf("service %d margin %.3f < 1", s.Service, s.Margin)
		}
	}

	body, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(body); err != nil {
		t.Errorf("metrics exposition invalid: %v", err)
	}
	for _, family := range []string{
		"abacus_calibration_slope",
		"abacus_calibration_samples_total",
		"abacus_service_admission_margin",
		"abacus_service_divergence_ewma",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Errorf("metrics missing family %s", family)
		}
	}
}

// TestPredictCacheTransparentUnderCalibration: the memo sits below
// calibration, so refits never make it stale and never need to reach it. An
// unpaced gateway whose predictor is 40% optimistic on Res152, calibrating
// online, answers one sequential client byte for byte the same with the
// default cache and with none; /statz differs only in its predict_cache
// blocks.
func TestPredictCacheTransparentUnderCalibration(t *testing.T) {
	run := func(cache int) (string, Statz) {
		pert := predictor.NewPerturbed(predictor.Oracle{Profile: gpusim.A100Profile()}, 1, 0, 7)
		pert.SetModelBias(dnn.ResNet152, 0.6)
		s, err := New(Config{
			Models:       []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3},
			Speedup:      realtime.Unpaced,
			Model:        pert,
			Calib:        &calib.Config{Seed: 7},
			PredictCache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer s.Drain()
		var out strings.Builder
		for i := 0; i < 120; i++ {
			body := fmt.Sprintf(`{"model":"Res152","batch":%d}`, 1+i%8)
			if i%2 == 1 {
				body = fmt.Sprintf(`{"model":"IncepV3","batch":%d}`, 1+i%5)
			}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(body)))
			fmt.Fprintf(&out, "%d %s", rec.Code, rec.Body)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
		var st Statz
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return out.String(), st
	}
	wantResp, want := run(-1)
	gotResp, got := run(4096)
	if gotResp != wantResp {
		t.Errorf("responses diverge with the cache on:\n got %s\nwant %s", firstDiff(gotResp, wantResp), firstDiff(wantResp, gotResp))
	}
	if got.PredictCache == nil || got.PredictCache.Hits == 0 || want.PredictCache != nil {
		t.Fatalf("predict_cache blocks: on %+v, off %+v", got.PredictCache, want.PredictCache)
	}
	if want.Calibration.Services[0].Updates == 0 {
		t.Fatal("no calibration refit happened; the comparison is vacuous")
	}
	got.PredictCache, got.Nodes[0].PredictCache = nil, nil
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("/statz diverges with the cache on:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// firstDiff returns a window around the first byte where a and b diverge.
func firstDiff(a, b string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	hi := i + 80
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("…%s… (offset %d)", a[lo:hi], i)
}
