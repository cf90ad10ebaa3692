package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/realtime"
	"abacus/internal/scaler"
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

// TestRetiredNodeLeavesNoPins: a node that served requests carrying IDs
// takes its sticky pins with it when it retires, so scale churn leaks no
// routes entries.
func TestRetiredNodeLeavesNoPins(t *testing.T) {
	s, c := newTestServer(t, Config{
		Models:  []dnn.ModelID{dnn.ResNet50},
		Speedup: 1000,
		// A thousand-wall-second control interval: the loop never ticks, and
		// the test drains a node by hand.
		Autoscale: &scaler.Config{MinNodes: 2, MaxNodes: 2, CapacityQPS: 1, IntervalMS: 1e9, WarmupMS: 1},
	})
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		req := InferRequest{Model: "Res50", Batch: 4, RequestID: fmt.Sprintf("pin-%d", i)}
		if _, status, err := c.Infer(ctx, req); err != nil || status != http.StatusOK {
			t.Fatalf("infer %d: status %d err %v", i, status, err)
		}
	}
	pins := func(id int) int {
		k := 0
		s.routes.Range(func(_, v any) bool {
			if v.(int) == id {
				k++
			}
			return true
		})
		return k
	}
	n := s.all()[0]
	if pins(1) > pins(0) {
		n = s.all()[1]
	}
	if pins(n.id) == 0 {
		t.Fatal("no request ID pinned to either node")
	}
	s.scaleMu.Lock()
	n.setPhase(scaler.Draining)
	s.scaleMu.Unlock()
	s.completeDrain(n)
	if p := n.Phase(); p != scaler.Retired {
		t.Fatalf("drained node is %v, want retired", p)
	}
	if k := pins(n.id); k != 0 {
		t.Errorf("%d sticky pins still name retired node %d", k, n.id)
	}
}

// TestEvictionKeepsAnotherNodesPin: an ID node 0 completed, then re-pinned
// to node 1 by a retry, keeps node 1's pin when it ages out of node 0's
// idempotency cache; an ID still pinned to node 0 loses its pin.
func TestEvictionKeepsAnotherNodesPin(t *testing.T) {
	s, err := New(Config{
		Models:    []dnn.ModelID{dnn.ResNet50},
		Placement: [][]dnn.ModelID{{dnn.ResNet50}, {dnn.ResNet50}},
		Speedup:   realtime.Unpaced,
	})
	if err != nil {
		t.Fatal(err)
	}
	recent := s.all()[0].recent
	s.routes.Store("own", 0)
	recent.add("own", &pending{})
	s.routes.Store("moved", 1)
	recent.add("moved", &pending{})
	for i := 0; i < dedupeWindow; i++ {
		recent.add(fmt.Sprintf("fill-%d", i), &pending{})
	}
	if _, ok := recent.get("moved"); ok {
		t.Fatal("cache still holds the ID; the test evicted nothing")
	}
	if v, ok := s.routes.Load("moved"); !ok || v.(int) != 1 {
		t.Errorf("node 0's eviction took node 1's pin: routes[moved] = %v, %v", v, ok)
	}
	if _, ok := s.routes.Load("own"); ok {
		t.Error("an evicted ID pinned to node 0 kept its pin")
	}
}

// gatewayGoroutines counts the live goroutines that gateway code started:
// those created by a method of a realtime or server type. Test helpers
// create theirs from plain functions, so they are not counted.
func gatewayGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	k := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "created by abacus/internal/realtime.(*") ||
			strings.Contains(g, "created by abacus/internal/server.(*") {
			k++
		}
	}
	return k
}

// waitGoroutines waits for gatewayGoroutines to read want. A stopped loop
// signals its exit just before its goroutine ends, hence the wait.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for got := gatewayGoroutines(); got != want; got = gatewayGoroutines() {
		if time.Now().After(deadline) {
			t.Fatalf("gateway runs %d goroutines, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOneGoroutinePerNode: while it serves, an N-node gateway runs N
// goroutines of its own — each node's bridge loop, which is also its
// admission queue — and after Drain none is left.
func TestOneGoroutinePerNode(t *testing.T) {
	const nodes = 3
	base := gatewayGoroutines()
	s, err := New(Config{
		Models:    []dnn.ModelID{dnn.ResNet50},
		Placement: [][]dnn.ModelID{{dnn.ResNet50}, {dnn.ResNet50}, {dnn.ResNet50}},
		Speedup:   realtime.Unpaced,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain()
	h := s.Handler()
	for i := 0; i < 3*nodes; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(`{"model":"Res50","batch":4}`)))
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d %s", i, w.Code, w.Body)
		}
	}
	for _, n := range s.all() {
		if n.routed == 0 {
			t.Fatalf("node %d served nothing", n.id)
		}
	}
	waitGoroutines(t, base+nodes)
	s.Drain()
	waitGoroutines(t, base)
}

// TestDrainingNodeRetiresWhenLastQueryResolves: a node asked to drain with
// one query in flight keeps its admissions open and does not retire; the
// moment that query resolves, the node retires, and the query is answered.
func TestDrainingNodeRetiresWhenLastQueryResolves(t *testing.T) {
	s, err := New(Config{
		Models: []dnn.ModelID{dnn.ResNet152},
		// A thousandth of real time: the query cannot finish on its own
		// while the test runs, only when the node's engine is flushed.
		Speedup: 1e-3,
		// The control loop never ticks; the test drains a node by hand.
		Autoscale: &scaler.Config{MinNodes: 2, MaxNodes: 2, CapacityQPS: 1, IntervalMS: 1e6, WarmupMS: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain()
	answered := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer",
			strings.NewReader(`{"model":"Res152","batch":32,"request_id":"inflight"}`)))
		answered <- w
	}()
	// onLoop reads node state on its loop goroutine.
	onLoop := func(n *node, f func()) {
		if err := n.bridge.Do(f); err != nil {
			t.Fatal(err)
		}
	}
	var n *node
	for n == nil {
		select {
		case w := <-answered:
			t.Fatalf("query answered before the drain: HTTP %d %s", w.Code, w.Body)
		default:
		}
		for _, c := range s.all() {
			out := 0
			onLoop(c, func() { out = c.Adm.Outstanding() })
			if out == 1 {
				n = c
			}
		}
		time.Sleep(time.Millisecond)
	}

	s.scaleMu.Lock()
	n.setPhase(scaler.Draining)
	s.scaleMu.Unlock()
	retired := make(chan struct{})
	go func() { s.completeDrain(n); close(retired) }()
	for requested := false; !requested; {
		time.Sleep(time.Millisecond)
		onLoop(n, func() { requested = n.idle != nil })
	}
	var closed bool
	onLoop(n, func() { closed = n.closed })
	select {
	case <-retired:
		t.Fatal("node retired with a query in flight")
	default:
	}
	if closed || n.Phase() != scaler.Draining {
		t.Fatalf("draining node with a query in flight: admissions closed %v, phase %v", closed, n.Phase())
	}

	if err := n.bridge.Flush(); err != nil { // the query resolves
		t.Fatal(err)
	}
	select {
	case <-retired:
	case <-time.After(10 * time.Second):
		t.Fatal("node did not retire after its last query resolved")
	}
	if p := n.Phase(); p != scaler.Retired {
		t.Errorf("drained node is %v, want retired", p)
	}
	if w := <-answered; w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"accepted":true`) {
		t.Errorf("in-flight query answered HTTP %d %s", w.Code, w.Body)
	}
}
