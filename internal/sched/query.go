// Package sched implements the query schedulers of the paper's evaluation:
// the Abacus headroom-based query controller (§6) with multi-way search and
// pipelined scheduling, and the three sequential baselines — FCFS, SJF, and
// EDF with the query-drop mechanism — that Nexus and Clockwork use per GPU.
package sched

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/sim"
)

// Service is one deployed DNN service with its QoS target.
type Service struct {
	ID    int
	Model dnn.ModelID
	QoS   float64 // latency target in ms (paper: 2× solo latency of the max input)
}

// Query is one user request being served.
type Query struct {
	ID      int64
	Service *Service
	Input   dnn.Input
	Arrival sim.Time // submission time; queuing, transfer, and execution all count against QoS
	// SLO, when positive, overrides the service QoS target for this query
	// alone (the online gateway's per-request deadline). Zero keeps the
	// service-wide target.
	SLO float64

	// NextOp is the first unexecuted operator (committed progress).
	NextOp int
	// posted is progress including the in-flight group (Abacus pipelining).
	posted int

	Finish  sim.Time
	Dropped bool
	done    bool

	segments int // operator groups this query participated in
}

// Segments reports how many operator groups the query was split across
// (1 means it ran in a single group; the paper's executor may divide a
// query into several segments, §6.1).
func (q *Query) Segments() int { return q.segments }

// Deadline returns the absolute QoS deadline: Arrival plus the per-query SLO
// override when set, the service-wide QoS target otherwise.
func (q *Query) Deadline() sim.Time {
	if q.SLO > 0 {
		return q.Arrival + q.SLO
	}
	return q.Arrival + q.Service.QoS
}

// Latency returns the end-to-end latency; valid once finished.
func (q *Query) Latency() float64 { return q.Finish - q.Arrival }

// Remaining returns the number of unexecuted operators (committed view).
func (q *Query) Remaining() int { return dnn.Get(q.Service.Model).NumOps() - q.NextOp }

// Violated reports whether the query finished after its deadline (dropped
// queries count as violations in the paper's Figure 15 accounting).
func (q *Query) Violated() bool { return q.Dropped || q.Finish > q.Deadline() }

// Scheduler is a per-GPU query scheduler. Enqueue is called on the
// simulation goroutine when a query's input transfer completes; the
// scheduler emits the query through its sink exactly once, either finished
// or dropped.
type Scheduler interface {
	Enqueue(*Query)
	// QueueLen reports queries accepted but not yet finished or dropped
	// (used by cluster-level routing).
	QueueLen() int
}

// Sink receives finished and dropped queries.
type Sink func(*Query)

// Config carries the scheduler tuning knobs shared across policies.
type Config struct {
	// Ways is the multi-way search width (§6.3); default 4.
	Ways int
	// PredictCost is the virtual CPU time of one batched duration-model
	// invocation, charged to the clock wherever it cannot be hidden
	// (default 0.09 ms, the Figure 23 regime).
	PredictCost float64
	// Pipelined enables forming the next group while the current one
	// executes (§6.3); default on. Exposed for the ablation benchmark.
	Pipelined bool
	// Drop enables the query-drop mechanism; default on for all policies
	// (the paper enables it for the baselines too, §7.1).
	Drop bool
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{Ways: 4, PredictCost: 0.09, Pipelined: true, Drop: true}
}

func (c Config) withDefaults() Config {
	if c.Ways <= 0 {
		c.Ways = 4
	}
	if c.PredictCost < 0 {
		c.PredictCost = 0
	}
	return c
}

// Services builds Service records for the given models with the paper's QoS
// rule: target = qosFactor × solo end-to-end latency (input transfer plus
// exclusive execution) at the model's maximum input (§7.1 uses factor 2).
func Services(models []dnn.ModelID, qosFactor float64, p gpusim.Profile) []*Service {
	return servicesAt(models, qosFactor, p, func(m *dnn.Model) dnn.Input { return m.MaxInput() })
}

// SmallServices builds services with QoS pinned to the minimum input (the
// Figure 16 small-DNN experiment).
func SmallServices(models []dnn.ModelID, qosFactor float64, p gpusim.Profile) []*Service {
	return servicesAt(models, qosFactor, p, func(m *dnn.Model) dnn.Input { return m.MinInput() })
}

func servicesAt(models []dnn.ModelID, qosFactor float64, p gpusim.Profile, input func(*dnn.Model) dnn.Input) []*Service {
	out := make([]*Service, len(models))
	for i, id := range models {
		m := dnn.Get(id)
		in := input(m)
		solo := dnn.TransferTime(m, in, p) + executor.ExclusiveLatency(id, in, p)
		out[i] = &Service{ID: i, Model: id, QoS: qosFactor * solo}
	}
	return out
}

func validateQuery(q *Query) {
	if q == nil || q.Service == nil {
		panic("sched: nil query or service")
	}
	if q.Input.Batch <= 0 {
		panic(fmt.Sprintf("sched: query %d has batch %d", q.ID, q.Input.Batch))
	}
}
