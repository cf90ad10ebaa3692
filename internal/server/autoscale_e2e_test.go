package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/realtime"
	"abacus/internal/scaler"
)

// autoscaleConfig is a gateway tuned so the lifecycle test can push the
// fleet up and watch it come back down within a few hundred wall ms:
// 10 ms wall control ticks (2000 virtual ms at speedup 200), one-tick
// warm-up, and a per-node capacity small enough that any sustained load
// demands more than the single founder.
func autoscaleConfig() Config {
	return Config{
		Models:  []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3},
		Speedup: 200,
		Autoscale: &scaler.Config{
			MinNodes:    1,
			MaxNodes:    3,
			CapacityQPS: 0.5,
			IntervalMS:  2000,
			WarmupMS:    2000,
		},
	}
}

// TestGatewayAutoscaleLifecycle drives the live elastic gateway end to end:
// sustained load scales the fleet out through a warm-up window, idling
// scales it back in, and the drained node leaves a terminal snapshot behind
// instead of vanishing. Runs under -race in CI, so it doubles as the
// concurrent add/drain-vs-router race check.
func TestGatewayAutoscaleLifecycle(t *testing.T) {
	s, c := newTestServer(t, autoscaleConfig())
	ctx := context.Background()

	// Phase 1: hammer until the controller scales out and promotes.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				model := "Res152"
				if i%2 == 1 {
					model = "IncepV3"
				}
				req := InferRequest{Model: model, Batch: 4}
				if i%8 == 0 {
					req.RequestID = fmt.Sprintf("as-%d-%d", g, i)
				}
				_, _, _ = c.Infer(ctx, req)
			}
		}(g)
	}

	grown := waitForStatz(t, c, 10*time.Second, func(st *Statz) bool {
		return st.Autoscale != nil && st.Autoscale.ActiveNodes >= 2
	})
	close(stop)
	wg.Wait()
	as := grown.Autoscale
	if as.ScaleOuts == 0 || as.PeakNodes < 2 {
		t.Fatalf("scale-out never happened: %+v", as)
	}
	if as.MinNodes != 1 || as.MaxNodes != 3 {
		t.Errorf("autoscale block misreports config: %+v", as)
	}
	for _, n := range grown.Nodes {
		if n.Phase == "" {
			t.Errorf("elastic node %d has no phase", n.Node)
		}
	}
	for _, n := range s.all() {
		if n.RT.Executor().Specs() != s.specs {
			t.Errorf("node %d runs on its own spec table, not the gateway's", n.id)
		}
	}

	// Phase 2: go idle; the forecast decays, cooldown expires, and the
	// newest nodes drain, finish, and retire with terminal snapshots.
	shrunk := waitForStatz(t, c, 15*time.Second, func(st *Statz) bool {
		return st.Autoscale.RetiredNodes >= 1 && st.Autoscale.LiveNodes == st.Autoscale.MinNodes
	})
	if len(shrunk.RetiredNodes) == 0 {
		t.Fatal("no terminal snapshot for the retired node")
	}
	for _, n := range shrunk.RetiredNodes {
		if n.Phase != "retired" {
			t.Errorf("retired snapshot phase %q", n.Phase)
		}
		if n.Node == 0 {
			t.Error("founder node 0 was drained; drain must prefer the newest nodes")
		}
	}
	if shrunk.Autoscale.ScaleIns == 0 {
		t.Error("fleet shrank without a recorded scale-in")
	}
	if shrunk.Autoscale.NodeMS <= 0 {
		t.Error("node-time accounting is empty")
	}

	// Retried IDs that were pinned to a retired node must remap and answer,
	// not 5xx: the sticky route dies with the node.
	for g := 0; g < 8; g++ {
		resp, status, err := c.Infer(ctx, InferRequest{
			Model: "Res152", Batch: 4, RequestID: fmt.Sprintf("as-%d-0", g), Attempt: 1,
		})
		if err != nil {
			t.Fatalf("retry after retirement: %v", err)
		}
		if status != http.StatusOK && status != http.StatusTooManyRequests {
			t.Errorf("retry after retirement: status %d, resp %+v", status, resp)
		}
	}

	// The metric families render and the exposition stays well-formed.
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"abacus_autoscale_target_nodes",
		"abacus_autoscale_nodes{phase=\"active\"}",
		"abacus_autoscale_scale_actions_total{direction=\"out\"}",
		"abacus_autoscale_retired_nodes_total",
		"abacus_autoscale_node_ms_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if err := ValidateExposition(body); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}

	// Statz keeps working after Drain stops the control loop.
	s.Drain()
	if st, err := c.Stats(ctx); err != nil || st.Autoscale == nil {
		t.Errorf("statz after drain: %v, %+v", err, st)
	}
}

// waitForStatz polls /statz until cond holds or the deadline passes.
func waitForStatz(t *testing.T, c *Client, timeout time.Duration, cond func(*Statz) bool) *Statz {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last *Statz
	for time.Now().Before(deadline) {
		st, err := c.Stats(context.Background())
		if err == nil && cond(st) {
			return st
		}
		last = st
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition never held within %v; last statz autoscale: %+v", timeout, last.Autoscale)
	return nil
}

// TestAutoscaleConfigValidation covers the elastic gateway's input rules.
func TestAutoscaleConfigValidation(t *testing.T) {
	base := autoscaleConfig()

	bad := base
	bad.Placement = [][]dnn.ModelID{{dnn.ResNet152, dnn.InceptionV3}}
	bad.Nodes = 1
	if _, err := New(bad); err == nil {
		t.Error("autoscale with pinned placement accepted")
	}

	bad = base
	bad.Nodes = 2 // MinNodes is 1
	if _, err := New(bad); err == nil {
		t.Error("autoscale with Nodes != MinNodes accepted")
	}

	bad = base
	bad.Speedup = realtime.Unpaced
	if _, err := New(bad); err == nil {
		t.Error("autoscale with Unpaced pacing accepted")
	}

	bad = base
	bad.Autoscale = &scaler.Config{MinNodes: 1, CapacityQPS: -1}
	if _, err := New(bad); err == nil {
		t.Error("negative capacity accepted")
	}

	bad = base
	bad.Models = []dnn.ModelID{dnn.ResNet50, dnn.ResNet101, dnn.ResNet152, dnn.InceptionV3, dnn.VGG16}
	if _, err := New(bad); err == nil {
		t.Error("five replicated models accepted despite the co-location bound")
	}

	// A valid MinNodes > 1 elastic gateway builds its founders replicated.
	ok := base
	ok.Autoscale = &scaler.Config{MinNodes: 2, MaxNodes: 4, CapacityQPS: 10, IntervalMS: 2000}
	s, err := New(ok)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumNodes() != 2 {
		t.Errorf("MinNodes 2 built %d founders", s.NumNodes())
	}
	for _, n := range s.all() {
		if len(n.models) != len(ok.Models) {
			t.Errorf("founder %d hosts %d models, want the full replicated set", n.id, len(n.models))
		}
	}
}
