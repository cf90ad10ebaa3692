package trace

import (
	"sort"
	"sync"
)

// Source is a lazy, finite arrival stream: Next yields arrivals in
// non-decreasing time order and reports ok=false once exhausted. The
// workload engine (internal/workload) compiles declarative specs into
// Sources; the determinism contract is that a Source's first k arrivals are
// byte-identical to the first k entries of the materialized slice built from
// the same inputs.
type Source interface {
	Next() (Arrival, bool)
}

// Collect drains a Source into a slice; max bounds the result when positive
// (a guard against unexpectedly unbounded sources).
func Collect(s Source, max int) []Arrival {
	var out []Arrival
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
		if max > 0 && len(out) >= max {
			return out
		}
	}
}

// Capture records a live workload — every validated request the gateway
// sees, stamped with its virtual arrival time — so a production session can
// be persisted as a replayable trace. Safe for concurrent use; multi-node
// gateways interleave slightly out of order across per-node clocks, so
// Snapshot sorts (stably) before returning.
type Capture struct {
	mu       sync.Mutex
	arrivals []Arrival
}

// NewCapture returns an empty recorder.
func NewCapture() *Capture { return &Capture{} }

// Record appends one arrival (any goroutine).
func (c *Capture) Record(a Arrival) {
	c.mu.Lock()
	c.arrivals = append(c.arrivals, a)
	c.mu.Unlock()
}

// Len reports how many arrivals have been recorded.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.arrivals)
}

// Snapshot returns the recorded arrivals, time-sorted (stable, so same-time
// arrivals keep their recording order).
func (c *Capture) Snapshot() []Arrival {
	c.mu.Lock()
	out := make([]Arrival, len(c.arrivals))
	copy(out, c.arrivals)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}
