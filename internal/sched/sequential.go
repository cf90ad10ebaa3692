package sched

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/predictor"
	"abacus/internal/sim"
)

// SequentialPolicy selects the ordering rule of the sequential baselines.
type SequentialPolicy int

// The per-GPU policies used by Nexus and Clockwork (§2, §7.1).
const (
	FCFS SequentialPolicy = iota // first come, first served
	SJF                          // shortest (predicted) job first
	EDF                          // earliest deadline first
)

// String returns the policy's conventional name.
func (p SequentialPolicy) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case SJF:
		return "SJF"
	case EDF:
		return "EDF"
	default:
		return fmt.Sprintf("SequentialPolicy(%d)", int(p))
	}
}

// Sequential is a baseline scheduler that runs one whole query at a time,
// exclusively, in FCFS/SJF/EDF order with the query-drop mechanism. This is
// how prior work keeps latency predictable: operators never overlap, at the
// cost of utilization (§3.1).
type Sequential struct {
	policy SequentialPolicy
	eng    *sim.Engine
	exec   *executor.Executor
	sink   Sink
	cfg    Config

	queue    []*Query
	est      map[estKey]float64 // SJF duration estimates
	dispatch bool               // a dispatch decision is pending (SJF predict delay)
}

type estKey struct {
	model  dnn.ModelID
	batch  int
	seqLen int
}

// NewSequential builds a baseline scheduler over the executor.
func NewSequential(policy SequentialPolicy, eng *sim.Engine, exec *executor.Executor, cfg Config, sink Sink) *Sequential {
	return &Sequential{
		policy: policy,
		eng:    eng,
		exec:   exec,
		sink:   sink,
		cfg:    cfg.withDefaults(),
		est:    make(map[estKey]float64),
	}
}

// QueueLen implements Scheduler.
func (s *Sequential) QueueLen() int {
	n := len(s.queue)
	if s.exec.Busy() {
		n++
	}
	return n
}

// Enqueue implements Scheduler.
func (s *Sequential) Enqueue(q *Query) {
	validateQuery(q)
	s.queue = append(s.queue, q)
	s.maybeDispatch()
}

func (s *Sequential) maybeDispatch() {
	if s.exec.Busy() || s.dispatch || len(s.queue) == 0 {
		return
	}
	if s.policy == SJF && s.cfg.PredictCost > 0 {
		// SJF must predict the duration of every queued query before it can
		// order the queue, and — unlike Abacus — it has no concurrent group
		// execution to hide the predictions behind (§7.2). The cost scales
		// with the queue depth, which is why the paper finds SJF the worst
		// of the four policies under load.
		cost := s.cfg.PredictCost * float64(len(s.queue))
		s.dispatch = true
		s.eng.Schedule(cost, func() {
			s.dispatch = false
			s.dispatchNow()
		})
		return
	}
	s.dispatchNow()
}

func (s *Sequential) dispatchNow() {
	if s.exec.Busy() {
		return
	}
	now := s.eng.Now()
	// Query-drop mechanism: discard queued queries already past their QoS
	// target (§7.1).
	if s.cfg.Drop {
		kept := s.queue[:0]
		for _, q := range s.queue {
			if now > q.Deadline() {
				q.Dropped = true
				q.Finish = now
				s.sink(q)
				continue
			}
			kept = append(kept, q)
		}
		s.queue = kept
	}
	if len(s.queue) == 0 {
		return
	}

	best := 0
	for i := 1; i < len(s.queue); i++ {
		if s.less(s.queue[i], s.queue[best]) {
			best = i
		}
	}
	q := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)

	m := dnn.Get(q.Service.Model)
	group := predictor.Group{{
		Model:   q.Service.Model,
		OpStart: q.NextOp,
		OpEnd:   m.NumOps(),
		Batch:   q.Input.Batch,
		SeqLen:  q.Input.SeqLen,
	}}
	s.exec.Execute(group, func() {
		q.NextOp = m.NumOps()
		q.Finish = s.eng.Now()
		q.done = true
		s.sink(q)
		s.maybeDispatch()
	})
}

// less orders queries by the configured policy, breaking ties by arrival
// then ID for determinism.
func (s *Sequential) less(a, b *Query) bool {
	switch s.policy {
	case SJF:
		da, db := s.estimate(a), s.estimate(b)
		if da != db {
			return da < db
		}
	case EDF:
		if a.Deadline() != b.Deadline() {
			return a.Deadline() < b.Deadline()
		}
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// estimate returns the exclusive execution time of the query, memoized per
// (model, input).
func (s *Sequential) estimate(q *Query) float64 {
	k := estKey{q.Service.Model, q.Input.Batch, q.Input.SeqLen}
	if v, ok := s.est[k]; ok {
		return v
	}
	v := executor.ExclusiveLatency(q.Service.Model, q.Input, s.exec.Device().Profile())
	s.est[k] = v
	return v
}
