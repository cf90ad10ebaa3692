package sched

import (
	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/predictor"
	"abacus/internal/sim"
)

// KernelLevel models the Prema-style kernel-granularity scheduling the
// paper rejects in §5.1 (Figure 6a): queries interleave at single-operator
// granularity with a synchronization fence between operators — no overlap —
// and every operator costs a duration prediction (the paper measures
// ~0.1 ms per kernel-level prediction, the same order as many operators).
// It exists to quantify why Abacus predicts at operator-group granularity.
type KernelLevel struct {
	eng  *sim.Engine
	exec *executor.Executor
	sink Sink
	cfg  Config

	queue       []*Query
	dispatching bool
}

// NewKernelLevel builds the kernel-granularity baseline.
func NewKernelLevel(eng *sim.Engine, exec *executor.Executor, cfg Config, sink Sink) *KernelLevel {
	cfg = cfg.withDefaults()
	if cfg.PredictCost <= 0 {
		cfg.PredictCost = 0.1
	}
	return &KernelLevel{eng: eng, exec: exec, sink: sink, cfg: cfg}
}

// QueueLen implements Scheduler.
func (k *KernelLevel) QueueLen() int {
	n := len(k.queue)
	if k.exec.Busy() {
		n++
	}
	return n
}

// Enqueue implements Scheduler.
func (k *KernelLevel) Enqueue(q *Query) {
	validateQuery(q)
	k.queue = append(k.queue, q)
	k.maybeDispatch()
}

func (k *KernelLevel) maybeDispatch() {
	if k.exec.Busy() || k.dispatching || len(k.queue) == 0 {
		return
	}
	// Charge the per-kernel prediction before each operator issue; unlike
	// Abacus there is no concurrent execution window to hide it in when
	// the device idles between fences.
	k.dispatching = true
	k.eng.Schedule(k.cfg.PredictCost, func() {
		k.dispatching = false
		k.dispatchOne()
	})
}

// dispatchOne executes exactly one operator of the earliest-deadline query.
func (k *KernelLevel) dispatchOne() {
	if k.exec.Busy() {
		return
	}
	now := k.eng.Now()
	if k.cfg.Drop {
		kept := k.queue[:0]
		for _, q := range k.queue {
			if now > q.Deadline() {
				q.Dropped = true
				q.Finish = now
				k.sink(q)
				continue
			}
			kept = append(kept, q)
		}
		k.queue = kept
	}
	if len(k.queue) == 0 {
		return
	}
	best := 0
	for i := 1; i < len(k.queue); i++ {
		a, b := k.queue[i], k.queue[best]
		if a.Deadline() < b.Deadline() ||
			(a.Deadline() == b.Deadline() && a.ID < b.ID) {
			best = i
		}
	}
	q := k.queue[best]
	m := dnn.Get(q.Service.Model)
	k.exec.Execute(predictor.Group{{
		Model:   q.Service.Model,
		OpStart: q.NextOp,
		OpEnd:   q.NextOp + 1,
		Batch:   q.Input.Batch,
		SeqLen:  q.Input.SeqLen,
	}}, func() {
		q.NextOp++
		if q.NextOp == m.NumOps() {
			q.Finish = k.eng.Now()
			q.done = true
			k.queue = removeQuery(k.queue, q)
			k.sink(q)
		}
		k.maybeDispatch()
	})
}

func removeQuery(queue []*Query, q *Query) []*Query {
	for i, cand := range queue {
		if cand == q {
			return append(queue[:i], queue[i+1:]...)
		}
	}
	return queue
}
