package cluster

import (
	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/sim"
)

// clockworkController models Clockwork's architecture (§7.6): a central
// controller holds all pending queries, dispatches in earliest-deadline
// order to idle GPUs, and never starts a query it predicts will miss its
// deadline (such queries are dropped — Clockwork's "won't schedule until it
// would miss the QoS deadline" behaviour). Each GPU executes exclusively;
// only one model instance is active per GPU at a time, and activating a
// different model pays a weight-swap delay.
type clockworkController struct {
	eng     *sim.Engine
	profile gpusim.Profile
	// dropSink records controller-level admission drops, which never reach a
	// GPU (tagged node -1 by the caller).
	dropSink sched.Sink

	pending []*sched.Query
	gpus    []*clockworkGPU
}

type clockworkGPU struct {
	exec   *executor.Executor
	sink   sched.Sink // completion sink tagged with this GPU's node index
	active dnn.ModelID
	loaded bool
	busy   bool
}

// newClockworkController runs the controller on devices, which share one
// engine; GPU i's completions go to sinkFor(i).
func newClockworkController(devices []*gpusim.Device, specs *dnn.Specs, sinkFor func(node int) sched.Sink) *clockworkController {
	c := &clockworkController{eng: devices[0].Engine(), profile: devices[0].Profile(), dropSink: sinkFor(-1)}
	for i, dev := range devices {
		c.gpus = append(c.gpus, &clockworkGPU{exec: executor.New(dev, 0.02, specs), sink: sinkFor(i)})
	}
	return c
}

// submit accepts a query into the central queue.
func (c *clockworkController) submit(q *sched.Query) {
	c.pending = append(c.pending, q)
	c.dispatch()
}

// dispatch assigns EDF-ordered queries to idle GPUs, preferring a GPU that
// already has the query's model active.
func (c *clockworkController) dispatch() {
	for {
		if len(c.pending) == 0 {
			return
		}
		// Earliest deadline first; ties by arrival then ID (determinism).
		best := 0
		for i := 1; i < len(c.pending); i++ {
			a, b := c.pending[i], c.pending[best]
			if a.Deadline() < b.Deadline() ||
				(a.Deadline() == b.Deadline() && (a.Arrival < b.Arrival ||
					(a.Arrival == b.Arrival && a.ID < b.ID))) {
				best = i
			}
		}
		q := c.pending[best]

		gpu := c.pickGPU(q)
		if gpu == nil {
			return // all GPUs busy; retried on completion
		}

		c.pending = append(c.pending[:best], c.pending[best+1:]...)

		now := c.eng.Now()
		swap := 0.0
		if !gpu.loaded || gpu.active != q.Service.Model {
			swap = dnn.SwapTime(dnn.Get(q.Service.Model), c.profile)
		}
		exec := executor.ExclusiveLatency(q.Service.Model, q.Input, c.profile)
		if now+swap+exec > q.Deadline() {
			// Admission control: the query cannot meet its deadline.
			q.Dropped = true
			q.Finish = now
			c.dropSink(q)
			continue
		}
		c.run(gpu, q, swap)
	}
}

// pickGPU returns an idle GPU, preferring one with the model already
// active.
func (c *clockworkController) pickGPU(q *sched.Query) *clockworkGPU {
	var fallback *clockworkGPU
	for _, g := range c.gpus {
		if g.busy {
			continue
		}
		if g.loaded && g.active == q.Service.Model {
			return g
		}
		if fallback == nil {
			fallback = g
		}
	}
	return fallback
}

func (c *clockworkController) run(gpu *clockworkGPU, q *sched.Query, swap float64) {
	gpu.busy = true
	start := func() {
		m := dnn.Get(q.Service.Model)
		gpu.active = q.Service.Model
		gpu.loaded = true
		gpu.exec.Execute(predictor.Group{{
			Model:   q.Service.Model,
			OpStart: q.NextOp,
			OpEnd:   m.NumOps(),
			Batch:   q.Input.Batch,
			SeqLen:  q.Input.SeqLen,
		}}, func() {
			q.NextOp = m.NumOps()
			q.Finish = c.eng.Now()
			gpu.sink(q)
			gpu.busy = false
			c.dispatch()
		})
	}
	if swap > 0 {
		c.eng.Schedule(swap, start)
	} else {
		start()
	}
}
