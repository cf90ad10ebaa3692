// Package executor implements the paper's flexible segmental model executor
// (§6.1). It executes one deterministic operator group at a time on a
// (simulated) GPU: the spans of all member queries are issued together, run
// concurrently under contention, and a synchronization point marks the group
// complete. Partially processed queries have their intermediate activations
// checkpointed so the next group can resume them.
//
// The paper runs each DNN service in its own OS process for fault isolation;
// in the simulation the processes' only architecturally visible effect — one
// span per service per group, independent kernel chains — is preserved.
package executor

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
)

// Executor drives one device, exclusively: a new group may only be issued
// once the previous group's synchronization completed, which is exactly how
// Abacus guarantees that the operator overlap is the one the predictor was
// consulted about (§4 step 3).
type Executor struct {
	dev   *gpusim.Device
	specs *dnn.Specs
	busy  bool

	syncCost float64 // host-side synchronization cost charged per group, ms

	groups        int64
	checkpointed  float64 // bytes of intermediate results currently saved
	peakCheckpoin float64

	// Group-run records are recycled across groups so the issue → overlap →
	// sync cycle allocates nothing in steady state (see DESIGN.md
	// "Simulation hot path").
	freeRuns []*groupRun
}

// groupRun tracks one in-flight group: the countdown of unfinished spans and
// the caller's completion callback. It rides through the device's callback
// machinery as a (func(any), arg) pair, so no closures are allocated.
type groupRun struct {
	ex        *Executor
	remaining int
	done      func()
}

// SyncCostMS is the per-group synchronization overhead, in ms, that every
// serving path charges and admission predicts with.
const SyncCostMS = 0.02

// New returns an executor over the device. syncCost is the per-group
// synchronization overhead charged on the virtual clock (≥ 0). specs is the
// kernel-spec table every span is read from; it must be bound to the
// device's profile, and nil gives the executor its own.
func New(dev *gpusim.Device, syncCost float64, specs *dnn.Specs) *Executor {
	if syncCost < 0 {
		panic("executor: negative sync cost")
	}
	if specs == nil {
		specs = dnn.NewSpecs(dev.Profile())
	} else if specs.Profile() != dev.Profile() {
		panic("executor: spec table bound to another device profile")
	}
	return &Executor{dev: dev, specs: specs, syncCost: syncCost}
}

// Device returns the underlying device.
func (e *Executor) Device() *gpusim.Device { return e.dev }

// Specs returns the kernel-spec table the executor reads spans from.
func (e *Executor) Specs() *dnn.Specs { return e.specs }

// Busy reports whether a group is in flight.
func (e *Executor) Busy() bool { return e.busy }

// Groups returns the number of groups executed so far.
func (e *Executor) Groups() int64 { return e.groups }

// CheckpointedBytes returns the bytes of intermediate results currently
// saved for partially processed queries (§7.8 reports ~20 MB).
func (e *Executor) CheckpointedBytes() float64 { return e.checkpointed }

// PeakCheckpointedBytes returns the high-water mark of checkpoint memory.
func (e *Executor) PeakCheckpointedBytes() float64 { return e.peakCheckpoin }

// Execute issues the group. Every span runs as a dependent kernel chain;
// chains from different queries overlap on the device. done fires after all
// spans complete and the synchronization cost elapsed. Execute panics if a
// group is already in flight or the group is invalid — the query controller
// guarantees both.
func (e *Executor) Execute(g predictor.Group, done func()) {
	if e.busy {
		panic("executor: Execute while a group is in flight")
	}
	if err := g.Validate(); err != nil {
		panic(fmt.Errorf("executor: %w", err))
	}
	e.busy = true
	e.groups++
	e.accountCheckpoints(g)

	gr := e.getRun()
	gr.remaining = len(g)
	gr.done = done
	if gr.remaining == 0 {
		e.dev.Engine().ScheduleArg(e.syncCost, groupSync, gr)
		return
	}
	for _, entry := range g {
		specs := e.specs.Span(entry.Model, entry.Input(), entry.OpStart, entry.OpEnd)
		e.dev.RunChainArg(specs, groupSpanDone, gr)
	}
}

// groupSpanDone fires when one span's kernel chain completes; the last span
// arms the group's synchronization point.
func groupSpanDone(a any) {
	gr := a.(*groupRun)
	gr.remaining--
	if gr.remaining == 0 {
		gr.ex.dev.Engine().ScheduleArg(gr.ex.syncCost, groupSync, gr)
	}
}

// groupSync fires after the synchronization cost elapses: the run record
// returns to the pool before the caller's callback runs, so a callback that
// immediately issues the next group reuses it.
func groupSync(a any) {
	gr := a.(*groupRun)
	ex, done := gr.ex, gr.done
	ex.putRun(gr)
	ex.busy = false
	done()
}

func (e *Executor) getRun() *groupRun {
	if n := len(e.freeRuns); n > 0 {
		gr := e.freeRuns[n-1]
		e.freeRuns[n-1] = nil
		e.freeRuns = e.freeRuns[:n-1]
		gr.ex = e
		return gr
	}
	return &groupRun{ex: e}
}

func (e *Executor) putRun(gr *groupRun) {
	*gr = groupRun{}
	e.freeRuns = append(e.freeRuns, gr)
}

// accountCheckpoints updates the intermediate-result memory gauge: an entry
// that stops before its model's end checkpoints the activation at the span
// boundary; an entry that completes its model frees its checkpoint.
func (e *Executor) accountCheckpoints(g predictor.Group) {
	var saved float64
	for _, entry := range g {
		m := dnn.Get(entry.Model)
		if entry.OpEnd < m.NumOps() {
			// Output activation of the last executed operator, fp32.
			saved += m.Ops[entry.OpEnd-1].OutElems.Eval(entry.Input()) * 4
		}
	}
	e.checkpointed = saved
	if saved > e.peakCheckpoin {
		e.peakCheckpoin = saved
	}
}

// ExclusiveLatency is a convenience: the exclusive-device latency of a whole
// query (all operators, no co-runners) — what the sequential baselines pay
// per query, and the basis of the paper's 2×-solo QoS targets.
func ExclusiveLatency(id dnn.ModelID, in dnn.Input, p gpusim.Profile) float64 {
	m := dnn.Get(id)
	return dnn.SpanWork(m, in, p, 0, m.NumOps())
}
