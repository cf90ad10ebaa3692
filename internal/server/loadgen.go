// Load generation against a live gateway: an open-loop mode that replays a
// trace.Arrival schedule paced against the wall clock (the MLPerf-style
// Poisson generator of §7.1, or a tracev2 replay), and a closed-loop mode
// with a fixed number of in-flight requesters. Because trace.Generator is
// deterministic per seed, the same seed drives both the live run and the
// offline simulator, making the paper's core claim — predicted latency ≈
// delivered latency — testable over a socket via OfflineBaseline.
package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/serving"
	"abacus/internal/stats"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// LoadConfig shapes one load-generation run.
type LoadConfig struct {
	Client *Client
	// Models names the arrivals' Service indices (the gateway deployment).
	Models []dnn.ModelID
	// Arrivals is the open-loop schedule (times in virtual ms). In closed
	// mode it is the pool of inputs, cycled in order.
	Arrivals []trace.Arrival
	// Speedup compresses the schedule: arrival at t fires at t/Speedup wall
	// ms after start (default 1). Match the gateway's own speedup so virtual
	// arrival times line up with the schedule.
	Speedup float64
	// DeadlineMS is an optional per-request SLO override.
	DeadlineMS float64
	// Closed switches to closed-loop mode: Concurrency workers keep
	// Requests total queries in flight back to back, ignoring arrival times.
	Closed      bool
	Concurrency int
	Requests    int
	// Think, when non-nil, makes each closed-loop worker pause between its
	// requests per this distribution (virtual ms, compressed by Speedup like
	// arrival times) — the worker becomes a modeled user, not a saturating
	// hammer. Each worker draws from its own RNG derived from (Seed, worker
	// index), never from a shared stream, so the think sequence every worker
	// sees is a pure function of the config at any goroutine interleaving.
	Think *workload.ThinkSpec
	// Seed derives the per-worker think RNG streams (default 1).
	Seed int64
	// Retry, when non-nil, sends every request through a Retrier under this
	// policy (idempotency keys assigned automatically).
	Retry *RetryPolicy

	// thinkHook observes every think draw (worker, ms) before the sleep; the
	// determinism regression test uses it to pin per-worker sequences.
	thinkHook func(worker int, ms float64)
}

// LoadStats aggregates one slice of outcomes.
type LoadStats struct {
	Sent             int
	Accepted         int
	Completed        int
	Violated         int // completed past the deadline
	Dropped          int // admitted, then dropped by the controller (504)
	RejectedDeadline int // 429, predicted completion past the deadline
	RejectedQueue    int // 429, per-service queue bound
	RejectedDegraded int // 429, shed by the degraded-mode margin
	Unavailable      int // 503, draining or stopped
	Errors           int // transport failures (request or response lost on the wire)
	DecodeErrors     int // responses that arrived but failed to decode (exclusive with Errors)
	Retries          int // extra attempts sent by the retry layer
	Duplicates       int // responses served from the gateway's idempotency cache

	P50MS      float64 // over completed queries, virtual ms
	P99MS      float64
	GoodputQPS float64 // completed-in-deadline per virtual second

	lats        []float64
	firstArrive float64
	lastFinish  float64
}

// LoadResult is a run's outcome.
type LoadResult struct {
	Total       LoadStats
	PerService  []LoadStats
	WallSeconds float64
}

// RunLoad drives the gateway and aggregates outcomes. It returns early on
// ctx cancellation with the results so far.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadResult, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("loadgen: nil client")
	}
	if len(cfg.Models) == 0 || len(cfg.Arrivals) == 0 {
		return nil, fmt.Errorf("loadgen: need models and arrivals")
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 1
	}
	col := newCollector(len(cfg.Models))
	if cfg.Retry != nil {
		col.retrier = NewRetrier(*cfg.Retry)
	}
	wallStart := time.Now()
	if cfg.Closed {
		runClosed(ctx, cfg, col)
	} else {
		runOpen(ctx, cfg, col)
	}
	res := col.result()
	res.WallSeconds = time.Since(wallStart).Seconds()
	return res, nil
}

func runOpen(ctx context.Context, cfg LoadConfig, col *collector) {
	wallStart := time.Now()
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, a := range cfg.Arrivals {
		due := time.Duration(a.Time / cfg.Speedup * float64(time.Millisecond))
		if wait := due - time.Since(wallStart); wait > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(wait):
			}
		}
		if ctx.Err() != nil {
			return
		}
		wg.Add(1)
		go func(a trace.Arrival) {
			defer wg.Done()
			sendOne(ctx, cfg, a, col)
		}(a)
	}
}

func runClosed(ctx context.Context, cfg LoadConfig, col *collector) {
	workers := cfg.Concurrency
	if workers <= 0 {
		workers = 4
	}
	total := cfg.Requests
	if total <= 0 {
		total = len(cfg.Arrivals)
	}
	next := make(chan trace.Arrival)
	go func() {
		defer close(next)
		for i := 0; i < total; i++ {
			select {
			case next <- cfg.Arrivals[i%len(cfg.Arrivals)]:
			case <-ctx.Done():
				return
			}
		}
	}()
	var think func(*workload.PRNG) float64
	if cfg.Think != nil && cfg.Think.MeanMS > 0 {
		think = cfg.Think.Sampler()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// Each worker's think stream is derived from (seed, worker), not
		// drawn from a generator the workers share: a shared stream would
		// hand out draws in whatever order goroutines happened to reach it,
		// making -concurrency N runs irreproducible.
		rng := workload.NewPRNG(workload.SubSeed(seed, saltThinkWorker, uint64(w)))
		go func(w int, rng *workload.PRNG) {
			defer wg.Done()
			for a := range next {
				sendOne(ctx, cfg, a, col)
				if think == nil {
					continue
				}
				ms := think(rng)
				if cfg.thinkHook != nil {
					cfg.thinkHook(w, ms)
				}
				wait := time.Duration(ms / cfg.Speedup * float64(time.Millisecond))
				select {
				case <-ctx.Done():
					return
				case <-time.After(wait):
				}
			}
		}(w, rng)
	}
	wg.Wait()
}

// saltThinkWorker namespaces the per-worker think-RNG derivation.
const saltThinkWorker = 0x77

func sendOne(ctx context.Context, cfg LoadConfig, a trace.Arrival, col *collector) {
	req := InferRequest{
		Model:      cfg.Models[a.Service].String(),
		Batch:      a.Input.Batch,
		SeqLen:     a.Input.SeqLen,
		DeadlineMS: cfg.DeadlineMS,
	}
	var (
		resp   *InferResponse
		status int
		err    error
		rst    RetryStats
	)
	if col.retrier != nil {
		resp, status, rst, err = col.retrier.InferRetry(ctx, cfg.Client, req)
	} else {
		resp, status, err = cfg.Client.Infer(ctx, req)
	}
	col.record(a.Service, resp, status, err, rst)
}

// collector accumulates outcomes thread-safely.
type collector struct {
	retrier *Retrier
	mu      sync.Mutex
	per     []LoadStats
}

func newCollector(services int) *collector {
	c := &collector{per: make([]LoadStats, services)}
	for i := range c.per {
		c.per[i].firstArrive = math.Inf(1)
	}
	return c
}

func (c *collector) record(service int, resp *InferResponse, status int, err error, rst RetryStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &c.per[service]
	s.Sent++
	s.Retries += rst.Retries
	if resp != nil && resp.Duplicate {
		s.Duplicates++
	}
	switch {
	case IsDecodeError(err):
		// A response arrived but would not parse: a protocol fault, counted
		// once here and never also as a transport error (with pooled read
		// buffers, a short read is surfaced as the read error before any
		// decode is attempted, so the two classes cannot overlap).
		s.DecodeErrors++
	case err != nil:
		s.Errors++
	case status == 200:
		s.Accepted++
		s.Completed++
		if resp.Violated {
			s.Violated++
		}
		s.lats = append(s.lats, resp.LatencyMS)
		if resp.ArrivalMS < s.firstArrive {
			s.firstArrive = resp.ArrivalMS
		}
		if resp.FinishMS > s.lastFinish {
			s.lastFinish = resp.FinishMS
		}
	case status == 504:
		s.Accepted++
		s.Dropped++
	case status == 429 && resp.Reason == reasonQueueFull:
		s.RejectedQueue++
	case status == 429 && resp.Reason == reasonDegraded:
		s.RejectedDegraded++
	case status == 429:
		s.RejectedDeadline++
	case status == 503:
		s.Unavailable++
	default:
		s.Errors++
	}
}

func (c *collector) result() *LoadResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	res := &LoadResult{PerService: make([]LoadStats, len(c.per))}
	t := &res.Total
	t.firstArrive = math.Inf(1)
	for i := range c.per {
		s := c.per[i]
		t.Sent += s.Sent
		t.Accepted += s.Accepted
		t.Completed += s.Completed
		t.Violated += s.Violated
		t.Dropped += s.Dropped
		t.RejectedDeadline += s.RejectedDeadline
		t.RejectedQueue += s.RejectedQueue
		t.RejectedDegraded += s.RejectedDegraded
		t.Unavailable += s.Unavailable
		t.Errors += s.Errors
		t.DecodeErrors += s.DecodeErrors
		t.Retries += s.Retries
		t.Duplicates += s.Duplicates
		t.lats = append(t.lats, s.lats...)
		if s.firstArrive < t.firstArrive {
			t.firstArrive = s.firstArrive
		}
		if s.lastFinish > t.lastFinish {
			t.lastFinish = s.lastFinish
		}
		s.finalize()
		res.PerService[i] = s
	}
	t.finalize()
	return res
}

// finalize derives percentiles and goodput from the raw latencies.
func (s *LoadStats) finalize() {
	if len(s.lats) > 0 {
		ps := stats.Percentiles(s.lats, 50, 99)
		s.P50MS, s.P99MS = ps[0], ps[1]
	}
	span := s.lastFinish - s.firstArrive
	if span > 0 {
		s.GoodputQPS = float64(s.Completed-s.Violated) / (span / 1000)
	}
}

// OfflineBaseline replays the same arrival schedule through the offline
// simulator under the Abacus policy (nil model = exact oracle) — the
// prediction the live gateway is measured against. qosMS, when it matches
// models in length, pins each service's QoS target so the replay uses the
// gateway's actual deadlines (statz reports them as qos_ms); nil selects the
// default 2× max-input solo derivation.
func OfflineBaseline(models []dnn.ModelID, qosMS []float64, arrivals []trace.Arrival, model predictor.LatencyModel) serving.Result {
	var svcs []*sched.Service
	if len(qosMS) == len(models) {
		svcs = make([]*sched.Service, len(models))
		for i, m := range models {
			svcs[i] = &sched.Service{ID: i, Model: m, QoS: qosMS[i]}
		}
	}
	return serving.Run(serving.RunConfig{
		Policy:   serving.PolicyAbacus,
		Models:   models,
		Arrivals: arrivals,
		Services: svcs,
		Model:    model,
	})
}
