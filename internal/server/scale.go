// Live elastic autoscaling for the gateway: the wall-clock host of
// scaler.Controller. A control-loop goroutine observes offered QPS per
// interval and executes the controller's advice against the running fleet —
// node add (a full engine + bridge stack anchored to the gateway epoch, so
// the newcomer's virtual clock lands in lockstep with its siblings), warm-up
// (probe-trickle-only routing until the controller promotes), and graceful
// drain (unroutable → in-flight finishes → bridge retires → terminal stats
// snapshot kept under /statz retired_nodes).
//
// The router never locks: it reads an immutable elasticFleet snapshot behind
// an atomic pointer, replaced copy-on-write under scaleMu by the control
// loop. With Config.Autoscale nil none of this runs and the gateway is
// byte-identical to the fixed-fleet build.

package server

import (
	"fmt"
	"sort"
	"time"

	"abacus/internal/scaler"
)

// drainPoll is how often a draining node is checked for quiescence.
const drainPoll = 5 * time.Millisecond

// elasticFleet is one immutable snapshot of the elastic node set. all is
// id-indexed and append-only across snapshots; the phase slices partition
// the live nodes. Retired nodes appear only in all.
type elasticFleet struct {
	all      []*node
	active   []*node
	warming  []*node
	draining []*node
}

func (f *elasticFleet) clone() *elasticFleet {
	return &elasticFleet{
		all:      append([]*node(nil), f.all...),
		active:   append([]*node(nil), f.active...),
		warming:  append([]*node(nil), f.warming...),
		draining: append([]*node(nil), f.draining...),
	}
}

func remove(set []*node, n *node) []*node {
	out := set[:0]
	for _, m := range set {
		if m != n {
			out = append(out, m)
		}
	}
	return out
}

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
		fl := s.fleet.Load()
		next := fl.clone()
		for _, id := range adv.Promote {
			n := next.all[id]
			next.warming = remove(next.warming, n)
			next.active = append(next.active, n)
		}
		var added []*node
		for _, id := range adv.Add {
			n := s.buildNode(id)
			added = append(added, n)
			next.all = append(next.all, n)
			next.warming = append(next.warming, n)
		}
		var drains []*node
		for _, id := range adv.Drain {
			n := next.all[id]
			n.unroutable.Store(true)
			next.active = remove(next.active, n)
			next.warming = remove(next.warming, n)
			next.draining = append(next.draining, n)
			drains = append(drains, n)
		}
		s.fleet.Store(next)
		s.scaleMu.Unlock()

		// Bridges start outside the lock: an epoch in the past fast-forwards
		// the newcomer to where its siblings already are, so start order does
		// not matter.
		for _, n := range added {
			n.bridge.StartAnchored(s.epoch)
			go n.admitLoop(s)
		}
		for _, n := range drains {
			go s.completeDrain(n)
		}
	}
}

// buildNode provisions one replicated node mid-flight. The founders were
// built from the same configuration, so a failure here is a gateway bug.
func (s *Server) buildNode(id int) *node {
	global := make([]int, len(s.cfg.Models))
	for i := range global {
		global[i] = i
	}
	n, err := newNode(s.cfg, id, s.cfg.Models, global, s.onResult,
		func(evicted string) { s.routes.Delete(evicted) })
	if err != nil {
		panic(fmt.Sprintf("server: autoscale adding node %d: %v", id, err))
	}
	return n
}

// completeDrain waits for a draining node to go quiescent, then retires it:
// mailbox shut (late stragglers answer as draining and remap on retry), a
// terminal stats snapshot taken while the bridge still runs, the bridge
// flushed and stopped, and the controller told the node's lifetime is over.
// The retired node's idempotency memory dies with it — a retry of a query it
// completed re-executes on a live replica.
func (s *Server) completeDrain(n *node) {
	for {
		idle := false
		if err := n.bridge.Do(func() { idle = len(n.pending) == 0 }); err != nil {
			// A gateway-wide Drain raced us and owns shutdown now.
			return
		}
		if idle && n.mailboxIdle() {
			break
		}
		time.Sleep(drainPoll)
	}
	n.stopMailbox()
	st := s.nodeStatz(n)
	st.Phase = scaler.Retired.String()
	if _, err := n.bridge.Retire(); err != nil {
		return // gateway-wide Drain won the retirement
	}
	s.scaleMu.Lock()
	s.retiredSt = append(s.retiredSt, st)
	fl := s.fleet.Load()
	next := fl.clone()
	next.draining = remove(next.draining, n)
	s.fleet.Store(next)
	s.ctrl.Retire(n.id, s.nowMS())
	s.scaleMu.Unlock()
}

// routeElastic picks the serving node over the mutable fleet. Sticky
// RequestIDs keep landing on their owner until it drains away, at which
// point the stale pin is dropped and the query remaps to a live replica.
// Warming nodes receive only the probe trickle (every probeEvery-th
// decision per service — the same cadence that re-feeds quarantined
// replicas), so a cold node's calibration and drift trackers see real
// traffic without the router betting real load on an unwarmed stack.
func (s *Server) routeElastic(svc int, requestID string) (n *node, local int, migrated bool) {
	fl := s.fleet.Load()
	if requestID != "" {
		if v, ok := s.routes.Load(requestID); ok {
			if id := v.(int); id < len(fl.all) && !fl.all[id].unroutable.Load() {
				return fl.all[id], svc, false
			}
			// The owner drained away: drop the stale pin so this attempt and
			// future retries remap.
			s.routes.Delete(requestID)
		}
	}
	probe := s.probes[svc].Add(1)%probeEvery == 0
	cand := fl.active
	switch {
	case probe:
		// Probe turns skip both filters: warming nodes and degraded
		// replicas get their trickle.
		if len(fl.warming) > 0 {
			merged := make([]*node, 0, len(fl.active)+len(fl.warming))
			merged = append(merged, fl.active...)
			merged = append(merged, fl.warming...)
			cand = merged
		}
	case len(cand) > 1:
		healthy := make([]*node, 0, len(cand))
		for _, m := range cand {
			if !m.degraded[svc].Load() {
				healthy = append(healthy, m)
			}
		}
		// All-degraded falls back to every active replica: shedding is the
		// admitters' job, routing still balances what is left.
		if len(healthy) > 0 {
			migrated = len(healthy) < len(cand)
			cand = healthy
		}
	}
	if len(cand) == 0 {
		// No active replicas (a warming-only instant mid-scale): route to
		// warming nodes rather than nowhere.
		cand = fl.warming
	}
	return cand[leastLoaded(len(cand), func(i int) *node { return cand[i] })], svc, migrated
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

// autoscaleStatz snapshots the controller and the live fleet under scaleMu.
// It returns the live nodes (sorted by id) with their phases, the autoscale
// block, and a copy of the terminal snapshots of retired nodes.
func (s *Server) autoscaleStatz() (live []*node, phases []string, as *AutoscaleStatz, retired []NodeStatz) {
	s.scaleMu.Lock()
	defer s.scaleMu.Unlock()
	fl := s.fleet.Load()
	phase := make(map[*node]string, len(fl.all))
	for _, n := range fl.active {
		phase[n] = scaler.Active.String()
	}
	for _, n := range fl.warming {
		phase[n] = scaler.Warming.String()
	}
	for _, n := range fl.draining {
		phase[n] = scaler.Draining.String()
	}
	for _, n := range fl.all {
		if _, ok := phase[n]; ok {
			live = append(live, n)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	phases = make([]string, len(live))
	for i, n := range live {
		phases[i] = phase[n]
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
	retired = append([]NodeStatz(nil), s.retiredSt...)
	return live, phases, as, retired
}
