// Live elastic autoscaling for the gateway: the wall-clock host of
// scaler.Controller. A control-loop goroutine observes offered QPS per
// interval and executes the controller's advice against the running fleet —
// node add (a full engine + bridge stack anchored to the gateway epoch, so
// the newcomer's virtual clock lands in lockstep with its siblings), warm-up
// (the Warming phase: fleet.Route sends it the probe trickle only until the
// controller promotes it), and graceful drain (Draining → in-flight finishes
// → bridge retires → terminal stats snapshot kept under /statz
// retired_nodes). With Config.Autoscale nil none of this runs and every node
// stays Active.

package server

import (
	"fmt"
	"time"

	"abacus/internal/scaler"
)

// nowMS is the gateway's shared virtual clock: wall time since the anchor
// epoch scaled by the pacing factor — the same discipline every node bridge
// derives its clock from.
func (s *Server) nowMS() float64 {
	return s.cfg.Speedup * float64(time.Since(s.epoch)) / float64(time.Millisecond)
}

// scaleLoop is the control loop: every controller interval (in wall terms)
// it swaps out the offered-arrival counter, lets the controller decide, and
// applies the advice. Runs until Drain.
func (s *Server) scaleLoop() {
	defer close(s.scaleDone)
	cfg := s.ctrl.Config()
	interval := time.Duration(cfg.IntervalMS / s.cfg.Speedup * float64(time.Millisecond))
	if interval <= 0 {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.scaleStop:
			return
		case <-tick.C:
		}
		qps := float64(s.arrivals.Swap(0)) * 1000 / cfg.IntervalMS

		s.scaleMu.Lock()
		adv := s.ctrl.Tick(s.nowMS(), qps)
		nodes := s.all()
		for _, id := range adv.Promote {
			nodes[id].setPhase(scaler.Active)
		}
		var added []*node
		for _, id := range adv.Add {
			// Founders host every model in order, from the same
			// configuration, so a failure here is a gateway bug.
			n, err := newNode(s, id, s.cfg.Models, nodes[0].global)
			if err != nil {
				panic(fmt.Sprintf("server: autoscale adding node %d: %v", id, err))
			}
			n.setPhase(scaler.Warming)
			added = append(added, n)
		}
		if added != nil {
			nodes = append(nodes[:len(nodes):len(nodes)], added...)
			s.fleet.Store(&nodes)
		}
		var drains []*node
		for _, id := range adv.Drain {
			nodes[id].setPhase(scaler.Draining)
			drains = append(drains, nodes[id])
		}
		s.scaleMu.Unlock()

		// Bridges start outside the lock: an epoch in the past fast-forwards
		// the newcomer to where its siblings already are, so start order does
		// not matter.
		for _, n := range added {
			n.bridge.StartAnchored(s.epoch)
		}
		for _, n := range drains {
			go s.completeDrain(n)
		}
	}
}

// completeDrain retires a draining node once it goes quiescent. It asks the
// node's loop to report the moment no admitted query is outstanding, which
// onResult does when the last one resolves; the loop then also closes the
// node's admissions (late stragglers answer as draining and remap on
// retry). Retirement follows: a terminal stats snapshot taken while the
// bridge still runs, the bridge flushed and stopped, its sticky pins
// dropped, and the controller told the node's lifetime is over. The retired
// node's idempotency memory dies with it — a retry of a query it completed
// re-executes on a live replica.
func (s *Server) completeDrain(n *node) {
	idle := make(chan struct{})
	if err := n.bridge.Do(func() { n.idle = idle; n.retireIfIdle() }); err != nil {
		// A gateway-wide Drain raced us and owns shutdown now.
		return
	}
	// Every Stop follows a Flush, which resolves every admitted query, so
	// idle always closes.
	<-idle
	st := s.nodeStatz(n)
	st.Phase = scaler.Retired.String()
	if _, err := n.bridge.Retire(); err != nil {
		return // gateway-wide Drain won the retirement
	}
	// The loop has stopped, so the idempotency memory is ours to read. An ID
	// a retry has since pinned to another node keeps that pin.
	for _, id := range n.recent.order {
		s.routes.CompareAndDelete(id, n.id)
	}
	s.scaleMu.Lock()
	s.retiredSt = append(s.retiredSt, st)
	n.setPhase(scaler.Retired)
	s.ctrl.Retire(n.id, s.nowMS())
	s.scaleMu.Unlock()
}

// AutoscaleStatz is the /statz autoscale block: the controller's live view
// of the fleet plus its action and suppression counters.
type AutoscaleStatz struct {
	MinNodes       int     `json:"min_nodes"`
	MaxNodes       int     `json:"max_nodes"`
	IntervalMS     float64 `json:"interval_ms"`
	WarmupMS       float64 `json:"warmup_ms"`
	TargetNodes    int     `json:"target_nodes"`
	LiveNodes      int     `json:"live_nodes"`
	WarmingNodes   int     `json:"warming_nodes"`
	ActiveNodes    int     `json:"active_nodes"`
	DrainingNodes  int     `json:"draining_nodes"`
	RetiredNodes   int     `json:"retired_nodes"`
	PeakNodes      int     `json:"peak_nodes"`
	Ticks          int64   `json:"ticks"`
	ScaleOuts      int64   `json:"scale_outs"`
	ScaleIns       int64   `json:"scale_ins"`
	HeldHysteresis int64   `json:"held_hysteresis"`
	HeldCooldown   int64   `json:"held_cooldown"`
	HeldMaxNodes   int64   `json:"held_max_nodes"`
	NodeMS         float64 `json:"node_ms"`
	ForecastQPS    float64 `json:"forecast_qps"`
	LastReason     string  `json:"last_reason,omitempty"`
}

// liveNodes snapshots, under scaleMu, the nodes not yet retired (in id
// order) with their phases and, with autoscale on, the control-loop block
// and a copy of the retired nodes' terminal snapshots.
func (s *Server) liveNodes() (live []*node, phases []scaler.Phase, as *AutoscaleStatz, retired []NodeStatz) {
	s.scaleMu.Lock()
	defer s.scaleMu.Unlock()
	for _, n := range s.all() {
		if p := n.Phase(); p != scaler.Retired {
			live = append(live, n)
			phases = append(phases, p)
		}
	}
	if s.ctrl == nil {
		return live, phases, nil, nil
	}
	snap := s.ctrl.Snapshot(s.nowMS())
	cfg := s.ctrl.Config()
	as = &AutoscaleStatz{
		MinNodes:       cfg.MinNodes,
		MaxNodes:       cfg.MaxNodes,
		IntervalMS:     cfg.IntervalMS,
		WarmupMS:       cfg.WarmupMS,
		TargetNodes:    snap.Target,
		LiveNodes:      snap.Live,
		WarmingNodes:   snap.Warming,
		ActiveNodes:    snap.Active,
		DrainingNodes:  snap.Draining,
		RetiredNodes:   snap.Retired,
		PeakNodes:      snap.Peak,
		Ticks:          snap.Ticks,
		ScaleOuts:      snap.ScaleOuts,
		ScaleIns:       snap.ScaleIns,
		HeldHysteresis: snap.Counters.HeldHysteresis,
		HeldCooldown:   snap.Counters.HeldCooldown,
		HeldMaxNodes:   snap.Counters.HeldMaxNodes,
		NodeMS:         snap.NodeMS,
		ForecastQPS:    snap.Forecast,
		LastReason:     snap.Last.Reason,
	}
	return live, phases, as, append([]NodeStatz(nil), s.retiredSt...)
}
