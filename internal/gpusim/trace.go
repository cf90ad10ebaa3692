package gpusim

import "abacus/internal/sim"

// KernelEvent records one kernel lifecycle transition on the device — the
// simulated analogue of an nvprof/Nsight timeline, used by tests to verify
// overlap structure and by tooling to visualize schedules.
type KernelEvent struct {
	Name   string
	Start  sim.Time
	Finish sim.Time
	// SMFrac/MemFrac echo the kernel's resource footprint.
	SMFrac, MemFrac float64
}

// Tracer receives completed-kernel events when tracing is enabled.
type Tracer func(KernelEvent)

// SetTracer installs (or, with nil, removes) a tracer. The tracer fires at
// each kernel's completion with its full lifecycle.
func (d *Device) SetTracer(t Tracer) { d.tracer = t }

// CollectTrace is a convenience tracer target: events append to the
// returned slice's backing store until the device is garbage collected.
func (d *Device) CollectTrace() *[]KernelEvent {
	events := &[]KernelEvent{}
	d.SetTracer(func(e KernelEvent) { *events = append(*events, e) })
	return events
}

// OverlapTime computes, from a collected trace, the total time during which
// at least `minConcurrent` kernels were resident — the quantity that
// distinguishes deterministic overlap from sequential execution.
func OverlapTime(events []KernelEvent, minConcurrent int) float64 {
	type edge struct {
		at    sim.Time
		delta int
	}
	var edges []edge
	for _, e := range events {
		edges = append(edges, edge{e.Start, 1}, edge{e.Finish, -1})
	}
	// Sort by time; ends before starts at the same instant so zero-length
	// overlaps do not count.
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && (edges[j].at < edges[j-1].at ||
			(edges[j].at == edges[j-1].at && edges[j].delta < edges[j-1].delta)); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	depth := 0
	var total float64
	var since sim.Time
	for _, e := range edges {
		if depth >= minConcurrent {
			total += e.at - since
		}
		depth += e.delta
		since = e.at
	}
	return total
}
