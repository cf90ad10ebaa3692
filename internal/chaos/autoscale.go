// Elastic-fleet support for the chaos harness: the virtual-time side of the
// live autoscaler. Scale ticks, node adds, graceful drains, and retirements
// are all ordinary engine events on the single shared clock, so an elastic
// run keeps the harness's determinism guarantee — byte-identical reports at
// any parallelism width.

package chaos

import (
	"fmt"

	"abacus/internal/scaler"
	"abacus/internal/sim"
)

// scaleTick is one control-loop interval: measure offered QPS since the last
// tick, let the controller decide, and execute its advice as virtual-time
// actions.
func (h *harness) scaleTick(now sim.Time) {
	cfg := h.ctrl.Config()
	qps := float64(h.tickQueries) * 1000 / cfg.IntervalMS
	h.tickQueries = 0
	adv := h.ctrl.Tick(float64(now), qps)
	for _, id := range adv.Promote {
		h.nodes[id].phase = scaler.Active
	}
	for _, id := range adv.Add {
		// The founders were built from the same config; a failure here is a
		// harness bug, not a scenario input error.
		if err := h.addNode(id, now, scaler.Warming); err != nil {
			panic(fmt.Sprintf("chaos: adding node %d: %v", id, err))
		}
	}
	for _, id := range adv.Drain {
		h.drainNode(h.nodes[id], now)
	}
}

// drainNode stops routing to a node; it retires once in-flight queries
// resolve (immediately when idle).
func (h *harness) drainNode(n *hNode, now sim.Time) {
	n.phase = scaler.Draining
	if n.inflight == 0 {
		h.retireNode(n, now)
	}
}

// retireNode closes the node's lifetime window. Its stats stay in the
// report; the router never sees it again.
func (h *harness) retireNode(n *hNode, now sim.Time) {
	n.phase = scaler.Retired
	n.rep.Window.LastMS = float64(now)
	h.ctrl.Retire(n.id, float64(now))
}

// finalizeAutoscale closes live nodes' windows at the terminal instant and
// folds the controller state into the report.
func (h *harness) finalizeAutoscale() {
	end := float64(h.eng.Now())
	for _, n := range h.nodes {
		if n.phase != scaler.Retired {
			n.rep.Window.LastMS = end
		}
	}
	snap := h.ctrl.Snapshot(end)
	cfg := h.ctrl.Config()
	static := float64(snap.Peak) * end
	saved := 0.0
	if static > 0 {
		saved = 1 - snap.NodeMS/static
	}
	h.rep.Autoscale = &AutoscaleReport{
		MinNodes:         cfg.MinNodes,
		MaxNodes:         cfg.MaxNodes,
		IntervalMS:       cfg.IntervalMS,
		WarmupMS:         cfg.WarmupMS,
		Ticks:            snap.Ticks,
		ScaleOuts:        snap.ScaleOuts,
		ScaleIns:         snap.ScaleIns,
		HeldHysteresis:   snap.Counters.HeldHysteresis,
		HeldCooldown:     snap.Counters.HeldCooldown,
		HeldMaxNodes:     snap.Counters.HeldMaxNodes,
		PeakNodes:        snap.Peak,
		FinalNodes:       snap.Live,
		EndMS:            end,
		NodeMS:           snap.NodeMS,
		StaticPeakNodeMS: static,
		SavedFrac:        saved,
		ForecastQPS:      snap.Forecast,
	}
}
