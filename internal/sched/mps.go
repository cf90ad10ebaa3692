package sched

import (
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/sim"
)

// FreeOverlap models MPS-style co-location without any scheduling (§3.2):
// every query's kernel chain launches the moment it arrives and overlaps
// arbitrarily with whatever else is resident. Latency becomes a function of
// random arrival interleavings — the unpredictability that motivates
// Abacus. It exists as the unmanaged baseline for the motivation experiment
// and the determinism ablation.
type FreeOverlap struct {
	eng  *sim.Engine
	dev  *gpusim.Device
	sink Sink

	outstanding int
}

// NewFreeOverlap builds the unmanaged baseline over a device.
func NewFreeOverlap(eng *sim.Engine, dev *gpusim.Device, sink Sink) *FreeOverlap {
	return &FreeOverlap{eng: eng, dev: dev, sink: sink}
}

// QueueLen implements Scheduler: with no queueing, it is the number of
// in-flight queries.
func (f *FreeOverlap) QueueLen() int { return f.outstanding }

// Enqueue implements Scheduler: the query starts immediately.
func (f *FreeOverlap) Enqueue(q *Query) {
	validateQuery(q)
	m := dnn.Get(q.Service.Model)
	specs := dnn.Kernels(m, q.Input, f.dev.Profile(), q.NextOp, m.NumOps())
	f.outstanding++
	f.dev.RunChain(specs, func() {
		f.outstanding--
		q.NextOp = m.NumOps()
		q.Finish = f.eng.Now()
		q.done = true
		f.sink(q)
	})
}
