// Package scaler turns autoscale.Planner recommendations into live cluster
// actions. It is the deliberately host-agnostic half of the elastic
// autoscaler: a Controller owns the planner, the node lifecycle book-keeping
// (Warming → Active → Draining → Retired), and the node-time accounting,
// while the host — the chaos harness in virtual time, the HTTP gateway in
// wall time — executes the advice (actually provisioning per-GPU nodes,
// rebuilding route tables, draining in-flight work) and reports lifecycle
// transitions back.
//
// The control loop is a fixed-interval tick: the host measures offered QPS
// over the interval from its per-service outcome counters, calls Tick, and acts
// on the returned Advice. A freshly added node pays a modeled
// model-activation warm-up window during which the router sends it only a
// probe trickle; the Controller promotes it to Active on the first tick at
// or past its warm-up deadline. Drains pick the newest nodes first, so the
// long-lived founders keep their calibration state and the probationary
// capacity is released first.
package scaler

import (
	"fmt"

	"abacus/internal/autoscale"
)

// Config tunes the live scaling loop.
type Config struct {
	// MinNodes floors the fleet; it is also the initial size (default 1).
	MinNodes int
	// MaxNodes caps the fleet (default 8).
	MaxNodes int
	// CapacityQPS is the per-node sustainable goodput the planner sizes
	// against (required; see autoscale.BuildPlan for estimating it).
	CapacityQPS float64
	// IntervalMS is the control-loop tick period in virtual milliseconds
	// (default 1000).
	IntervalMS float64
	// WarmupMS is the modeled model-activation window a new node pays
	// before it takes full traffic (default 1500). Promotion happens on
	// the first tick at or past the deadline, so the effective warm-up
	// rounds up to the tick interval.
	WarmupMS float64
}

// scaleInCooldown suppresses scale-in for this many ticks after any scale
// action.
const scaleInCooldown = 5

func (c Config) withDefaults() Config {
	if c.MinNodes <= 0 {
		c.MinNodes = 1
	}
	if c.MaxNodes == 0 {
		c.MaxNodes = 8
	}
	if c.IntervalMS == 0 {
		c.IntervalMS = 1000
	}
	if c.WarmupMS == 0 {
		c.WarmupMS = 1500
	}
	return c
}

// Phase is a node's position in the elastic lifecycle.
type Phase int

// The lifecycle: a node warms up, serves, drains, and is retired.
const (
	Warming Phase = iota
	Active
	Draining
	Retired
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Warming:
		return "warming"
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Retired:
		return "retired"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Node is the lifecycle record for one provisioned node. Times are in the
// host's clock domain (virtual ms in simulation, ms since the gateway epoch
// online).
type Node struct {
	ID           int
	Phase        Phase
	AddedMS      float64 // provisioned: node-time starts accruing
	ActiveMS     float64 // promoted out of warm-up
	DrainStartMS float64
	RetiredMS    float64
}

// Advice is the set of actions one tick asks the host to execute. IDs in
// Add are freshly allocated: the host must provision a node per ID and
// route it only a probe trickle until it appears in Promote. IDs in Drain
// must be made unroutable and retired (via Controller.Retire) once their
// in-flight work completes.
type Advice struct {
	Decision autoscale.Decision
	Reason   string
	Target   int
	Promote  []int
	Add      []int
	Drain    []int
}

// Controller drives the planner and tracks the fleet lifecycle. It is not
// goroutine-safe: the chaos harness calls it from the engine goroutine, the
// gateway serializes access behind its scale mutex.
type Controller struct {
	cfg           Config
	planner       *autoscale.Planner
	nodes         []*Node // append-only, indexed by ID
	retiredNodeMS float64 // accumulated lifetime of retired nodes
	peakLive      int
	ticks         int64
	scaleOuts     int64 // node-add actions
	scaleIns      int64 // node-drain actions
}

// New builds a controller with MinNodes already Active at time zero.
func New(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.CapacityQPS <= 0 {
		return nil, fmt.Errorf("scaler: capacity %v must be positive", cfg.CapacityQPS)
	}
	if cfg.IntervalMS <= 0 {
		return nil, fmt.Errorf("scaler: interval %v must be positive", cfg.IntervalMS)
	}
	if cfg.WarmupMS < 0 {
		return nil, fmt.Errorf("scaler: warmup %v must be >= 0", cfg.WarmupMS)
	}
	planner, err := autoscale.NewPlanner(autoscale.PlannerConfig{
		Plan:            autoscale.Plan{CapacityQPS: cfg.CapacityQPS},
		MinNodes:        cfg.MinNodes,
		MaxNodes:        cfg.MaxNodes,
		ScaleInCooldown: scaleInCooldown,
	})
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, planner: planner, peakLive: cfg.MinNodes}
	for i := 0; i < cfg.MinNodes; i++ {
		c.nodes = append(c.nodes, &Node{ID: i, Phase: Active})
	}
	return c, nil
}

// Config returns the controller's resolved configuration.
func (c *Controller) Config() Config { return c.cfg }

// Tick feeds one interval's offered load, promotes warmed-up nodes, and
// returns the actions the host must execute. nowMS must be monotonically
// non-decreasing across calls.
func (c *Controller) Tick(nowMS, offeredQPS float64) Advice {
	c.ticks++
	adv := Advice{}
	// Promote first: a node that finished warming counts as serving
	// capacity before this tick's add/drain decisions.
	for _, n := range c.nodes {
		if n.Phase == Warming && nowMS >= n.AddedMS+c.cfg.WarmupMS {
			n.Phase = Active
			n.ActiveMS = nowMS
			adv.Promote = append(adv.Promote, n.ID)
		}
	}
	dec, target := c.planner.Observe(offeredQPS)
	adv.Decision = dec
	adv.Reason = c.planner.Last().Reason
	adv.Target = target
	live := c.live()
	for live < target {
		n := &Node{ID: len(c.nodes), Phase: Warming, AddedMS: nowMS}
		c.nodes = append(c.nodes, n)
		adv.Add = append(adv.Add, n.ID)
		c.scaleOuts++
		live++
	}
	// Drain newest-first: warming probationers go before seasoned actives,
	// and the founders (with their learned calibration) go last.
	for live > target {
		d := c.newestLive()
		if d == nil {
			break
		}
		d.Phase = Draining
		d.DrainStartMS = nowMS
		adv.Drain = append(adv.Drain, d.ID)
		c.scaleIns++
		live--
	}
	if live > c.peakLive {
		c.peakLive = live
	}
	return adv
}

// Retire marks a draining node fully stopped (in-flight work done, bridge
// retired) and closes its node-time window.
func (c *Controller) Retire(id int, nowMS float64) {
	n := c.node(id)
	if n == nil || n.Phase == Retired {
		return
	}
	n.Phase = Retired
	n.RetiredMS = nowMS
	c.retiredNodeMS += nowMS - n.AddedMS
}

// Phase reports a node's lifecycle phase; ok is false for unknown IDs.
func (c *Controller) Phase(id int) (Phase, bool) {
	n := c.node(id)
	if n == nil {
		return 0, false
	}
	return n.Phase, true
}

// NodeMS returns total accumulated node-time in milliseconds: retired
// lifetimes plus the open windows of still-live nodes measured at nowMS.
// This is the numerator of the node-hours-saved figure.
func (c *Controller) NodeMS(nowMS float64) float64 {
	total := c.retiredNodeMS
	for _, n := range c.nodes {
		if n.Phase != Retired {
			total += nowMS - n.AddedMS
		}
	}
	return total
}

// Snapshot is a point-in-time view of the controller for /statz and
// reports.
type Snapshot struct {
	Target   int
	Live     int
	Warming  int
	Active   int
	Draining int
	Retired  int
	Peak     int
	Ticks    int64
	// ScaleOuts and ScaleIns count node-level actions (one planner
	// decision shrinking 3 → 1 is two ScaleIns).
	ScaleOuts int64
	ScaleIns  int64
	NodeMS    float64
	Forecast  float64
	Last      autoscale.LastDecision
	Counters  autoscale.Counters
}

// Snapshot captures the controller state with node-time measured at nowMS.
func (c *Controller) Snapshot(nowMS float64) Snapshot {
	s := Snapshot{
		Target:    c.planner.Nodes(),
		Peak:      c.peakLive,
		Ticks:     c.ticks,
		ScaleOuts: c.scaleOuts,
		ScaleIns:  c.scaleIns,
		NodeMS:    c.NodeMS(nowMS),
		Forecast:  c.planner.Forecast(),
		Last:      c.planner.Last(),
		Counters:  c.planner.Counters(),
	}
	for _, n := range c.nodes {
		switch n.Phase {
		case Warming:
			s.Warming++
		case Active:
			s.Active++
		case Draining:
			s.Draining++
		case Retired:
			s.Retired++
		}
	}
	s.Live = s.Warming + s.Active
	return s
}

// live counts nodes that are serving capacity (warming counts: it will be
// by the time demand needs it).
func (c *Controller) live() int {
	live := 0
	for _, n := range c.nodes {
		if n.Phase == Warming || n.Phase == Active {
			live++
		}
	}
	return live
}

// newestLive returns the live node with the highest ID, or nil.
func (c *Controller) newestLive() *Node {
	for i := len(c.nodes) - 1; i >= 0; i-- {
		if n := c.nodes[i]; n.Phase == Warming || n.Phase == Active {
			return n
		}
	}
	return nil
}

// node looks up a lifecycle record by ID (IDs are assigned densely in
// creation order, so the ID is the index).
func (c *Controller) node(id int) *Node {
	if id < 0 || id >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}
