package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/realtime"
	"abacus/internal/trace"
)

// TestEndToEndUnpaced runs the gateway in batch mode (realtime.Unpaced): the
// virtual clock free-runs, so nothing here depends on wall-clock pacing and
// the test asserts exact count conservation instead of latency percentiles.
// Unlike the paced realtime e2e test, it has no -short or race-detector
// skips — it IS the race-detector coverage for the full HTTP → admission →
// runtime → response path.
func TestEndToEndUnpaced(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	arrivals := trace.NewGenerator(models, 21).Poisson(40, 3000)

	c := startGateway(t, Config{Models: models, Speedup: realtime.Unpaced})
	res, err := RunLoad(context.Background(), LoadConfig{
		Client:      c,
		Models:      models,
		Arrivals:    arrivals,
		Closed:      true,
		Concurrency: 8,
		Requests:    len(arrivals),
		Retry:       &RetryPolicy{MaxAttempts: 2, BaseBackoff: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.Sent != len(arrivals) {
		t.Fatalf("sent %d, want %d", tot.Sent, len(arrivals))
	}
	if tot.Errors != 0 {
		t.Fatalf("transport/protocol errors: %d", tot.Errors)
	}
	// Count conservation: every request has exactly one final outcome.
	accounted := tot.Completed + tot.Dropped + tot.RejectedDeadline +
		tot.RejectedQueue + tot.RejectedDegraded + tot.Unavailable
	if accounted != tot.Sent {
		t.Fatalf("outcomes %d != sent %d (%+v)", accounted, tot.Sent, tot)
	}
	// In batch mode each query completes inside its own admission window, so
	// nothing is admitted onto a backlog and nothing can violate.
	if tot.Violated != 0 {
		t.Errorf("violations in unpaced mode: %d", tot.Violated)
	}
	if tot.Completed == 0 {
		t.Fatal("no queries completed")
	}

	// The gateway's own books must agree with the client's.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var acc, comp, rej int64
	for _, s := range st.Services {
		acc += s.Accepted
		comp += s.Completed + s.Dropped
		rej += s.RejectedDeadline + s.RejectedQueue + s.RejectedDegraded + s.RejectedDraining
	}
	if acc != int64(tot.Accepted) {
		t.Errorf("gateway accepted %d, client saw %d", acc, tot.Accepted)
	}
	if comp != acc {
		t.Errorf("gateway accepted %d but finished %d", acc, comp)
	}
	if rej != int64(tot.Sent-tot.Accepted) {
		t.Errorf("gateway rejected %d, client saw %d", rej, tot.Sent-tot.Accepted)
	}

	body, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(body); err != nil {
		t.Errorf("metrics exposition invalid: %v", err)
	}
}

// reuseWriter is an http.ResponseWriter whose header map and body buffer
// survive across requests, so the driver adds nothing to the per-request
// allocation count it measures.
type reuseWriter struct {
	h    http.Header
	code int
	buf  []byte
}

func (w *reuseWriter) Header() http.Header { return w.h }

func (w *reuseWriter) WriteHeader(code int) { w.code = code }

func (w *reuseWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// TestHandlerAllocsCeiling holds one full in-process request on an unpaced
// gateway — decode → route → mailbox → admit → simulate → encode through
// Handler().ServeHTTP — to at most 300 allocations. The handler's own
// scratch is allocation-free (TestInferHotPathZeroAllocs); the ceiling
// catches growth in everything around it.
func TestHandlerAllocsCeiling(t *testing.T) {
	const ceiling = 300
	s, err := New(Config{Models: []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3}, Speedup: realtime.Unpaced})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain()
	h := s.Handler()
	payload := []byte(`{"model":"Res50","batch":4}`)
	body := bytes.NewReader(payload)
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", body)
	w := &reuseWriter{h: make(http.Header, 4)}
	serve := func() {
		body.Reset(payload)
		w.code, w.buf = http.StatusOK, w.buf[:0]
		h.ServeHTTP(w, req)
	}
	for i := 0; i < 300; i++ {
		serve() // warm the pools, the predictor memo and the admission caches
	}
	allocs := testing.AllocsPerRun(1000, serve)
	if w.code != http.StatusOK || !bytes.Contains(w.buf, []byte(`"accepted":true`)) {
		t.Fatalf("probe request not served: HTTP %d %s", w.code, w.buf)
	}
	if allocs > ceiling {
		t.Fatalf("handler round trip allocates %.1f/request; ceiling %d", allocs, ceiling)
	}
	t.Logf("%.1f allocs/request", allocs)
}
