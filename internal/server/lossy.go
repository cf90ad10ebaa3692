// LossyTransport is the load generator's unreliable network: an
// http.RoundTripper that drops inference requests in transit with a seeded
// probability, half of them before the request reaches the gateway and half
// after the gateway has already answered (the response is lost on the way
// back). The split matters: an after-send drop leaves the query executed but
// unacknowledged, so a correct client must retry under the same idempotency
// key and the gateway must suppress the re-execution — exactly the path
// server.Retrier plus the dedupe cache exist for.
package server

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"abacus/internal/rng"
)

// LossyTransport drops /v1/infer requests with probability p; every other
// path (health, stats, metrics) passes through untouched so harnesses can
// share one client. Safe for concurrent use.
type LossyTransport struct {
	inner http.RoundTripper
	p     float64
	seed  int64

	attempts      atomic.Int64
	droppedBefore atomic.Int64
	droppedAfter  atomic.Int64
}

// NewLossyTransport wraps inner (nil = http.DefaultTransport) with a drop
// probability in [0, 1] and a seed for the drop coins.
func NewLossyTransport(inner http.RoundTripper, dropProb float64, seed int64) *LossyTransport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	if dropProb < 0 || dropProb > 1 {
		panic(fmt.Sprintf("server: lossy drop probability %v outside [0, 1]", dropProb))
	}
	return &LossyTransport{inner: inner, p: dropProb, seed: seed}
}

// DroppedBeforeSend counts requests lost before reaching the gateway.
func (t *LossyTransport) DroppedBeforeSend() int64 { return t.droppedBefore.Load() }

// DroppedAfterSend counts responses lost after the gateway answered.
func (t *LossyTransport) DroppedAfterSend() int64 { return t.droppedAfter.Load() }

// RoundTrip implements http.RoundTripper.
func (t *LossyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.p == 0 || req.URL.Path != "/v1/infer" {
		return t.inner.RoundTrip(req)
	}
	n := t.attempts.Add(1) - 1
	coin := lossyCoin(t.seed, n)
	if coin < t.p/2 {
		// Lost on the way out: the gateway never sees the request.
		t.droppedBefore.Add(1)
		return nil, fmt.Errorf("lossy: request %d dropped in transit", n)
	}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if coin < t.p {
		// Lost on the way back: the gateway already executed the query, but
		// the caller only ever learns via retry.
		t.droppedAfter.Add(1)
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return nil, fmt.Errorf("lossy: response %d dropped in transit", n)
	}
	return resp, nil
}

// lossyCoin is a splitmix64-finalized uniform draw in [0, 1) keyed by (seed,
// attempt) — the same generator the chaos harness flips, so a drop schedule
// replays for a given seed and attempt order.
func lossyCoin(seed, i int64) float64 {
	return float64(rng.Keyed(uint64(seed), uint64(i), 0, 0)>>11) / (1 << 53)
}
