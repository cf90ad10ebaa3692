package server

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/realtime"
	"abacus/internal/trace"
)

// startGateway brings up a gateway on a loopback port and returns its client.
func startGateway(t *testing.T, cfg Config) *Client {
	t.Helper()
	_, c := startServer(t, cfg)
	return c
}

// startServer is startGateway that also returns the gateway itself.
func startServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeListener(ln) }()
	c := NewClient("http://"+ln.Addr().String(), nil)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return s, c
}

// TestEndToEndUnpaced runs the gateway in batch mode (realtime.Unpaced): the
// virtual clock free-runs, so nothing here depends on wall-clock pacing and
// the test asserts exact count conservation instead of latency percentiles.
// Unlike the paced e2e tests, it runs in the default suite with no -short or
// race-detector skips — it IS the race-detector coverage for the full HTTP →
// admission → runtime → response path.
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
	checkUnpacedBooks(t, c, res.Total, len(arrivals))
}

// TestEndToEndOpenLoopUnpaced replays a seeded Poisson trace open-loop
// through an unpaced gateway, so every arrival is in flight at once, and
// asserts what needs no wall-clock pacing. Its paced counterpart,
// TestEndToEndFast (build tag paced), asserts what depends on the host
// keeping up with a compressed schedule.
func TestEndToEndOpenLoopUnpaced(t *testing.T) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	arrivals := trace.NewGenerator(models, 7).Poisson(40, 4000)

	c := startGateway(t, Config{Models: models, Speedup: realtime.Unpaced})
	res, err := RunLoad(context.Background(), LoadConfig{
		Client:   c,
		Models:   models,
		Arrivals: arrivals,
		Speedup:  realtime.Unpaced,
	})
	if err != nil {
		t.Fatal(err)
	}
	tot := res.Total
	if tot.P99MS <= 0 || tot.P50MS > tot.P99MS {
		t.Errorf("implausible percentiles p50=%v p99=%v", tot.P50MS, tot.P99MS)
	}
	checkUnpacedBooks(t, c, tot, len(arrivals))
}

// checkUnpacedBooks asserts what every unpaced run of sent requests must
// show: all of them sent, no transport or protocol errors, exactly one final
// outcome per request, no deadline violations, gateway books that agree with
// the client's, and a /metrics body that parses as text exposition 0.0.4.
func checkUnpacedBooks(t *testing.T, c *Client, tot LoadStats, sent int) {
	t.Helper()
	if tot.Sent != sent {
		t.Fatalf("sent %d, want %d", tot.Sent, sent)
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
	// nothing is admitted onto a backlog and, with the oracle predictor,
	// nothing can violate.
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
