// Client-side recovery: retry with exponential backoff, seeded jitter, and
// per-attempt timeouts that honor the remaining SLO budget. Every retried
// request carries an idempotency key (RequestID) so the gateway executes the
// query at most once even when responses are lost or duplicated on the wire,
// plus an Attempt counter so the gateway can account retry pressure.
package server

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// RetryPolicy shapes the client's recovery behavior.
type RetryPolicy struct {
	// MaxAttempts bounds total tries, first included (default 3).
	MaxAttempts int
	// BaseBackoff seeds the exponential schedule (default 50ms); attempt n
	// sleeps BaseBackoff × Multiplier^n × jitter, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps a single sleep (default 2s).
	MaxBackoff time.Duration
	// Multiplier grows the backoff between attempts (default 2).
	Multiplier float64
	// Jitter is the half-width of the multiplicative jitter band (default
	// 0.5: sleeps scale by a seeded uniform draw from [0.5, 1.5)). Zero
	// keeps the default; negative disables jitter.
	Jitter float64
	// JitterSeed seeds the jitter stream so retry schedules replay
	// deterministically (default 1).
	JitterSeed int64
	// SLOBudget bounds the whole operation in wall time, sleeps included;
	// when the budget cannot cover another backoff plus attempt, the last
	// response is returned instead of retrying. Each attempt is bounded by
	// the budget that remains. Zero means unbounded.
	SLOBudget time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.JitterSeed == 0 {
		p.JitterSeed = 1
	}
	return p
}

// RetryStats reports what one InferRetry call did.
type RetryStats struct {
	// Attempts is the number of requests actually sent.
	Attempts int
	// Retries is Attempts-1 when positive.
	Retries int
	// BackoffTotal is the wall time spent sleeping between attempts.
	BackoffTotal time.Duration
	// BudgetExhausted reports that the SLO budget, not MaxAttempts or
	// success, ended the operation.
	BudgetExhausted bool
	// RetryAfterHonored counts sleeps taken from a 429's Retry-After header
	// instead of the exponential schedule.
	RetryAfterHonored int
	// DecodeErrors counts attempts whose response arrived but failed to
	// decode (server.DecodeError) — protocol faults, distinct from the
	// transport errors that merely lost the response on the wire.
	DecodeErrors int
}

// Retrier executes requests under a RetryPolicy. It is safe for concurrent
// use; the jitter stream is shared (and locked), so per-call schedules are
// deterministic only under serial use — deterministic *aggregate* behavior
// under concurrency is what the chaos harness checks instead.
type Retrier struct {
	policy RetryPolicy

	mu      sync.Mutex
	rng     *rand.Rand
	nextID  int64
	sleepFn func(context.Context, time.Duration) error // test seam
}

// NewRetrier builds a Retrier; zero policy fields take the defaults above.
func NewRetrier(policy RetryPolicy) *Retrier {
	p := policy.withDefaults()
	return &Retrier{
		policy:  p,
		rng:     rand.New(rand.NewSource(p.JitterSeed)),
		sleepFn: sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// requestID mints a process-unique idempotency key.
func (r *Retrier) requestID() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	return fmt.Sprintf("rq-%x-%x", r.policy.JitterSeed, r.nextID)
}

// backoff returns the jittered sleep before retry number attempt (1-based).
func (r *Retrier) backoff(attempt int) time.Duration {
	d := float64(r.policy.BaseBackoff)
	for i := 1; i < attempt; i++ {
		d *= r.policy.Multiplier
		if d >= float64(r.policy.MaxBackoff) {
			d = float64(r.policy.MaxBackoff)
			break
		}
	}
	if r.policy.Jitter > 0 {
		r.mu.Lock()
		f := 1 + r.policy.Jitter*(2*r.rng.Float64()-1)
		r.mu.Unlock()
		d *= f
	}
	if d > float64(r.policy.MaxBackoff) {
		d = float64(r.policy.MaxBackoff)
	}
	return time.Duration(d)
}

// retriable reports whether an outcome is worth another attempt: transport
// errors (response possibly lost — the idempotency key makes the resend
// safe), 429 admission rejections (the backlog drains), and 5xx other than
// the gateway's terminal 504 drop verdict.
func retriable(status int, err error) bool {
	if err != nil {
		return true
	}
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	}
	return status >= 500 && status != http.StatusGatewayTimeout
}

// retryAfter extracts a 429/503 Retry-After delay, if present and sane.
func retryAfter(h http.Header) (time.Duration, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	sec, err := strconv.Atoi(v)
	if err != nil || sec < 0 {
		return 0, false
	}
	return time.Duration(sec) * time.Second, true
}

// InferRetry sends req under the retry policy. It assigns a RequestID when
// the caller did not, stamps the Attempt counter, and sleeps between tries —
// honoring a 429's Retry-After hint when it fits the remaining SLO budget.
// When the budget or MaxAttempts runs out, the last response and status are
// returned (with a nil error if that response was well-formed).
func (r *Retrier) InferRetry(ctx context.Context, c *Client, req InferRequest) (*InferResponse, int, RetryStats, error) {
	if req.RequestID == "" {
		req.RequestID = r.requestID()
	}
	var deadline time.Time
	if r.policy.SLOBudget > 0 {
		deadline = time.Now().Add(r.policy.SLOBudget)
	}
	var (
		st      RetryStats
		resp    *InferResponse
		status  int
		hdr     http.Header
		lastErr error
	)
	for attempt := 0; attempt < r.policy.MaxAttempts; attempt++ {
		req.Attempt = attempt
		attemptCtx, cancel := attemptContext(ctx, deadline)
		resp, status, hdr, lastErr = c.inferHeaders(attemptCtx, req)
		cancel()
		st.Attempts++
		if IsDecodeError(lastErr) {
			st.DecodeErrors++
		}
		if lastErr == nil && !retriable(status, nil) {
			st.Retries = st.Attempts - 1
			return resp, status, st, nil
		}
		if ctx.Err() != nil {
			break
		}
		if st.Attempts >= r.policy.MaxAttempts {
			break
		}
		sleep := r.backoff(st.Attempts)
		honored := false
		if lastErr == nil {
			if ra, ok := retryAfter(hdr); ok {
				sleep = ra
				honored = true
			}
		}
		if !deadline.IsZero() && time.Now().Add(sleep).After(deadline) {
			// The wait alone would blow the SLO budget: surface the last
			// verdict now instead of sleeping past the deadline.
			st.BudgetExhausted = true
			break
		}
		if err := r.sleepFn(ctx, sleep); err != nil {
			break
		}
		st.BackoffTotal += sleep
		if honored {
			st.RetryAfterHonored++
		}
	}
	st.Retries = st.Attempts - 1
	if ctx.Err() != nil && lastErr == nil && resp == nil {
		lastErr = ctx.Err()
	}
	return resp, status, st, lastErr
}

// attemptContext bounds one attempt by the remaining SLO budget; without a
// deadline only ctx bounds it.
func attemptContext(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return context.WithCancel(ctx)
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		remaining = time.Millisecond
	}
	return context.WithTimeout(ctx, remaining)
}
