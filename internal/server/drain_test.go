package server

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/realtime"
)

// TestGracefulDrainCompletesInFlight covers the drain satellite: a query in
// flight when drain starts is fast-forwarded to completion and answered 200
// before the listener closes, while requests arriving after the drain flag
// flips get 503.
func TestGracefulDrainCompletesInFlight(t *testing.T) {
	s, err := New(Config{
		Models: []dnn.ModelID{dnn.ResNet152},
		// Slow pacing (half real time) so the query is genuinely still in
		// flight when Drain fires; the flush then completes it instantly.
		Speedup: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeListener(ln) }()
	c := NewClient("http://"+ln.Addr().String(), nil)
	ctx := context.Background()
	if err := c.WaitReady(ctx, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	type result struct {
		resp   *InferResponse
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, status, err := c.Infer(ctx, InferRequest{Model: "Res152", Batch: 32})
		inflight <- result{resp, status, err}
	}()

	// Let the query reach the device. At speedup 0.5 a batch-32 Res152 pass
	// (~100 virtual ms) takes ~200 wall ms, so 50ms in it is still running.
	time.Sleep(50 * time.Millisecond)

	shutdownErr := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(sctx)
	}()

	select {
	case r := <-inflight:
		if r.err != nil {
			t.Fatalf("in-flight query errored during drain: %v", r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("in-flight query got %d during drain, want 200 (resp %+v)", r.status, r.resp)
		}
		if r.resp.Violated || r.resp.Dropped {
			t.Errorf("drained query outcome %+v", r.resp)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight query never answered during drain")
	}

	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown", err)
	}

	// The listener is closed now: new connections must fail.
	if _, _, err := c.Infer(ctx, InferRequest{Model: "Res152", Batch: 8}); err == nil {
		t.Error("infer succeeded against a shut-down gateway")
	}
}

// TestDrainingRejectsNewWork covers the second half of the satellite: once
// draining starts, not-yet-admitted queries get 503 rather than queueing.
func TestDrainingRejectsNewWork(t *testing.T) {
	s, c := newTestServer(t, Config{Models: []dnn.ModelID{dnn.ResNet50}, Speedup: 1000})
	ctx := context.Background()
	if _, status, err := c.Infer(ctx, InferRequest{Model: "Res50", Batch: 8}); err != nil || status != http.StatusOK {
		t.Fatalf("pre-drain infer: status %d err %v", status, err)
	}

	s.Drain()

	resp, status, err := c.Infer(ctx, InferRequest{Model: "Res50", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain infer got %d, want 503 (resp %+v)", status, resp)
	}
	if resp.Reason != reasonDraining {
		t.Errorf("post-drain reason %q, want %q", resp.Reason, reasonDraining)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Error("statz does not report draining")
	}
}

// TestShutdownClosesUnusedConnection: a client that dialled the gateway and
// never sent a request must not hold Shutdown up. http.Server.Shutdown alone
// counts such a connection as active for 5 s, so a 1 s deadline expired.
func TestShutdownClosesUnusedConnection(t *testing.T) {
	s, err := New(Config{Models: []dnn.ModelID{dnn.ResNet50}, Speedup: realtime.Unpaced})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.ServeListener(ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for accepted := false; !accepted; {
		s.connMu.Lock()
		accepted = len(s.newConns) == 1
		s.connMu.Unlock()
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with one unused connection: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("serve returned %v after graceful shutdown", err)
	}
}
