package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"abacus/internal/dnn"
)

// newTestServer builds a gateway, serves it from an httptest listener, and
// tears both down at cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	s.Start()
	t.Cleanup(func() {
		s.Drain()
		ts.Close()
	})
	return s, NewClient(ts.URL, nil)
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Models: []dnn.ModelID{
		dnn.ResNet50, dnn.ResNet101, dnn.ResNet152, dnn.InceptionV3, dnn.VGG16,
	}}); err == nil {
		t.Error("five co-located models accepted")
	}
}

func TestHealthzAndStatz(t *testing.T) {
	_, c := newTestServer(t, Config{Models: []dnn.ModelID{dnn.ResNet50}, Speedup: 1000})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Services) != 1 {
		t.Fatalf("statz lists %d services, want 1", len(st.Services))
	}
	if st.Services[0].Model != "Res50" || st.Services[0].QoSMS <= 0 {
		t.Errorf("statz service entry = %+v", st.Services[0])
	}
	if st.Draining {
		t.Error("fresh gateway reports draining")
	}
}

func TestInferCompletesUnderLightLoad(t *testing.T) {
	_, c := newTestServer(t, Config{
		Models:  []dnn.ModelID{dnn.ResNet152, dnn.Bert},
		Speedup: 1000,
	})
	ctx := context.Background()
	resp, status, err := c.Infer(ctx, InferRequest{Model: "Res152", Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d, resp %+v", status, resp)
	}
	if !resp.Accepted || resp.Dropped || resp.Violated {
		t.Errorf("idle-device query outcome %+v", resp)
	}
	if resp.LatencyMS <= 0 || resp.FinishMS <= resp.ArrivalMS {
		t.Errorf("implausible timing %+v", resp)
	}
	if resp.LatencyMS > resp.DeadlineMS {
		t.Errorf("latency %v exceeds deadline %v yet not violated", resp.LatencyMS, resp.DeadlineMS)
	}

	// A sequence model requires its seqlen.
	resp, status, err = c.Infer(ctx, InferRequest{Model: "Bert", Batch: 8, SeqLen: 32})
	if err != nil || status != http.StatusOK {
		t.Fatalf("bert infer: status %d err %v resp %+v", status, err, resp)
	}
}

func TestInferRejectsBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Models: []dnn.ModelID{dnn.ResNet50, dnn.Bert}, Speedup: 1000})
	ctx := context.Background()
	cases := []struct {
		req  InferRequest
		want string // the 400's error text, which clients may match on
	}{
		{InferRequest{Model: "VGG16", Batch: 8}, `model "VGG16" not deployed`},
		{InferRequest{Model: "Res50", Batch: 0}, "batch 0 outside served range [4, 32]"},
		{InferRequest{Model: "Res50", Batch: 33}, "batch 33 outside served range [4, 32]"},
		{InferRequest{Model: "Res50", Batch: 8, SeqLen: 8}, `model "Res50" takes no sequence length`},
		{InferRequest{Model: "Bert", Batch: 8, SeqLen: 7}, "seqlen 7 not served (allowed [8 16 32 64])"},
		{InferRequest{Model: "Bert", Batch: 8}, "seqlen 0 not served (allowed [8 16 32 64])"},
		{InferRequest{Model: "Res50", Batch: 8, DeadlineMS: -1}, "negative deadline -1"},
	}
	for _, tc := range cases {
		resp, status, err := c.Infer(ctx, tc.req)
		if err != nil {
			t.Fatalf("%+v: %v", tc.req, err)
		}
		if status != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", tc.req, status)
		}
		if resp.Error != tc.want {
			t.Errorf("%+v: error %q, want %q", tc.req, resp.Error, tc.want)
		}
	}
}

// TestAdmissionControlUnderSaturation drives a saturating burst with the
// oracle predictor: accepted queries must meet their deadlines (goodput ≈
// accepted count, mirroring the fig15 QoS-violation shape over HTTP) and
// rejections must be immediate 429s with a Retry-After hint.
func TestAdmissionControlUnderSaturation(t *testing.T) {
	// Speedup 1 keeps the burst concurrent in virtual time: at high speedup
	// the clock races ahead between arrivals and drains the backlog the
	// burst is meant to pile up.
	_, c := newTestServer(t, Config{
		Models:  []dnn.ModelID{dnn.ResNet152},
		Speedup: 1,
	})
	ctx := context.Background()

	const burst = 60
	type outcome struct {
		resp   *InferResponse
		status int
		wall   time.Duration
	}
	outcomes := make([]outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, status, err := c.Infer(ctx, InferRequest{Model: "Res152", Batch: 32})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			outcomes[i] = outcome{resp: resp, status: status, wall: time.Since(start)}
		}(i)
	}
	wg.Wait()

	var accepted, good, violated, dropped, rejected int
	var maxRejectWall time.Duration
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			accepted++
			if o.resp.Violated {
				violated++
			} else {
				good++
			}
		case http.StatusGatewayTimeout:
			accepted++
			dropped++
		case http.StatusTooManyRequests:
			rejected++
			if o.wall > maxRejectWall {
				maxRejectWall = o.wall
			}
			if o.resp.Reason != reasonDeadline && o.resp.Reason != reasonQueueFull {
				t.Errorf("reject reason %q", o.resp.Reason)
			}
		default:
			t.Errorf("unexpected status %d (%+v)", o.status, o.resp)
		}
	}
	if accepted == 0 {
		t.Fatal("saturating burst admitted nothing")
	}
	if rejected < burst/4 {
		t.Errorf("only %d/%d rejected; burst did not saturate", rejected, burst)
	}
	if violated != 0 {
		t.Errorf("%d admitted queries violated their deadline (oracle predictor)", violated)
	}
	if float64(good) < 0.9*float64(accepted) {
		t.Errorf("goodput %d !≈ accepted %d (dropped %d)", good, accepted, dropped)
	}
	// A rejection must not wait out the backlog: it only costs one admission
	// round trip. The bound is generous for loaded CI hosts.
	if maxRejectWall > 2*time.Second {
		t.Errorf("slowest rejection took %v, want immediate", maxRejectWall)
	}
}

func TestRejectionCarriesRetryAfter(t *testing.T) {
	s, c := newTestServer(t, Config{
		Models:  []dnn.ModelID{dnn.ResNet152},
		Speedup: 100,
	})
	_ = s
	ctx := context.Background()
	// An impossible deadline rejects regardless of load.
	resp, status, err := c.Infer(ctx, InferRequest{Model: "Res152", Batch: 32, DeadlineMS: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (resp %+v)", status, resp)
	}
	if resp.Reason != reasonDeadline {
		t.Errorf("reason %q, want %q", resp.Reason, reasonDeadline)
	}
	if resp.PredictedMS <= 0.001 {
		t.Errorf("predicted completion %v should exceed the deadline", resp.PredictedMS)
	}

	// The header itself is checked over the raw transport.
	hres, err := http.Post(c.base+"/v1/infer", "application/json",
		strings.NewReader(`{"model":"Res152","batch":32,"deadline_ms":0.001}`))
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	ra := hres.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if sec, err := strconv.Atoi(ra); err != nil || sec < 1 {
		t.Errorf("Retry-After %q, want integer seconds >= 1", ra)
	}
}

func TestQueueBoundShedsLoad(t *testing.T) {
	// Speedup 1 with a heavy batch keeps admitted work outstanding long
	// enough for the burst to pile onto the queue bound; a huge deadline
	// keeps the deadline check from firing first.
	_, c := newTestServer(t, Config{
		Models:   []dnn.ModelID{dnn.ResNet152},
		Speedup:  1,
		QueueCap: 2,
	})
	ctx := context.Background()
	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var queueFull int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, status, err := c.Infer(ctx, InferRequest{Model: "Res152", Batch: 32, DeadlineMS: 1e9})
			if err != nil {
				t.Error(err)
				return
			}
			if status == http.StatusTooManyRequests && resp.Reason == reasonQueueFull {
				mu.Lock()
				queueFull++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if queueFull == 0 {
		t.Error("no queue_full rejections with QueueCap=2 under a 16-wide burst")
	}
}

func TestMetricsEndpointValidates(t *testing.T) {
	_, c := newTestServer(t, Config{Models: []dnn.ModelID{dnn.ResNet50, dnn.InceptionV3}, Speedup: 1000})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Infer(ctx, InferRequest{Model: "Res50", Batch: 8}); err != nil {
			t.Fatal(err)
		}
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(body); err != nil {
		t.Errorf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"abacus_requests_total", "abacus_queries_total", "abacus_queue_depth",
		"abacus_latency_ms", "abacus_goodput_qps", "abacus_virtual_time_ms",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestPredictCacheStats: the default-on memoization cache surfaces its
// counters on /statz and /metrics, records hits once signatures repeat, and
// disappears from both when disabled.
func TestPredictCacheStats(t *testing.T) {
	_, c := newTestServer(t, Config{Models: []dnn.ModelID{dnn.ResNet50}, Speedup: 1000})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Infer(ctx, InferRequest{Model: "Res50", Batch: 8}); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.PredictCache == nil {
		t.Fatal("statz missing predict_cache with the default-on cache")
	}
	if st.PredictCache.Capacity != 4096 || st.PredictCache.Misses == 0 {
		t.Errorf("predict_cache stats = %+v", st.PredictCache)
	}
	if st.PredictCache.Hits == 0 {
		t.Errorf("repeated identical queries produced no cache hits: %+v", st.PredictCache)
	}
	body, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(body); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
	for _, want := range []string{
		"abacus_predict_cache_size", "abacus_predict_cache_hits_total",
		"abacus_predict_cache_misses_total", "abacus_predict_cache_evictions_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %s", want)
		}
	}

	_, off := newTestServer(t, Config{Models: []dnn.ModelID{dnn.ResNet50}, Speedup: 1000, PredictCache: -1})
	st, err = off.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.PredictCache != nil {
		t.Errorf("disabled cache still reports stats: %+v", st.PredictCache)
	}
	body, err = off.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(body), "abacus_predict_cache") {
		t.Error("disabled cache still renders abacus_predict_cache_* metrics")
	}
}

func TestValidateExpositionRejectsGarbage(t *testing.T) {
	cases := []string{
		"no_type_line 1\n",
		"# TYPE x counter\nx{bad-label=\"y\"} 1\n",
		"# TYPE x counter\nx notanumber\n",
		"# TYPE x flavor\nx 1\n",
		"# BOGUS x counter\n",
	}
	for _, c := range cases {
		if err := ValidateExposition([]byte(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	good := "# HELP y help text\n# TYPE y summary\ny{quantile=\"0.5\"} 1.5\ny_sum 3\ny_count 2\n"
	if err := ValidateExposition([]byte(good)); err != nil {
		t.Errorf("rejected valid exposition: %v", err)
	}
}

// TestNodesShareOneSpecTable: a gateway is one host, so every node it ever
// builds — the founders and a node added by scale-out, which goes through
// the same newNode — runs on the one spec table built in New, and another
// gateway has its own.
func TestNodesShareOneSpecTable(t *testing.T) {
	cfg := Config{Models: []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}, Nodes: 2}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	founders := a.all()
	added, err := newNode(a, len(founders), cfg.Models, founders[0].global)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range append(founders, added) {
		if n.RT.Executor().Specs() != a.specs {
			t.Errorf("node %d runs on its own spec table, not the gateway's", n.id)
		}
	}
	if a.specs == b.specs {
		t.Fatal("two gateways share one spec table")
	}
	for _, n := range b.all() {
		if n.RT.Executor().Specs() != b.specs {
			t.Errorf("second gateway's node %d runs on another table", n.id)
		}
	}
}
