// Package autoscale implements the paper's §7.9 future-work direction: an
// Abacus-aware capacity planner for a DNN serving cluster. It combines
//
//   - an affinity-driven co-location plan (which services share a GPU,
//     built on the §7.8 overlap-gain analysis in internal/predictor),
//   - a per-node capacity estimate obtained by saturating one simulated
//     node under that plan, and
//   - a load forecaster (exponentially weighted moving average with a
//     safety headroom) that converts offered load into a node
//     count, recommending scale-out/in decisions with hysteresis.
package autoscale

import (
	"fmt"
	"math"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/serving"
	"abacus/internal/sim"
	"abacus/internal/trace"
)

// Plan is the co-location and capacity plan for one node class.
type Plan struct {
	// Groups assigns services to GPUs within a node; only same-group
	// services are co-deployed (the §7.8 profiling-scalability scheme).
	Groups [][]dnn.ModelID
	// CapacityQPS is the estimated per-node goodput at the QoS target.
	CapacityQPS float64
}

// BuildPlan partitions the services into co-location groups of size
// groupSize and estimates the node's aggregate goodput capacity (one GPU
// per group) by saturating each group's GPU in simulation.
func BuildPlan(models []dnn.ModelID, groupSize int, p gpusim.Profile, seed int64) Plan {
	groups := predictor.PartitionServices(models, groupSize, 16, p)
	var capacity float64
	for _, group := range groups {
		capacity += estimateGroupCapacity(group, p, seed)
	}
	return Plan{Groups: groups, CapacityQPS: capacity}
}

// estimateGroupCapacity saturates one GPU running the group under Abacus
// and returns its sustainable goodput.
func estimateGroupCapacity(models []dnn.ModelID, p gpusim.Profile, seed int64) float64 {
	gen := trace.NewGenerator(models, seed)
	// Offer far more than a single GPU can serve; goodput saturates at
	// capacity.
	res := serving.Run(serving.RunConfig{
		Policy:   serving.PolicyAbacus,
		Models:   models,
		Arrivals: gen.Poisson(300, 3000),
		Devices:  []*gpusim.Device{gpusim.New(sim.NewEngine(), p)},
	})
	return res.Goodput()
}

// Decision is one autoscaling recommendation.
type Decision int

// The planner's possible recommendations.
const (
	Hold Decision = iota
	ScaleOut
	ScaleIn
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Hold:
		return "hold"
	case ScaleOut:
		return "scale-out"
	case ScaleIn:
		return "scale-in"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// The planner's sizing constants.
const (
	// headroom is the target utilization ceiling: keep 30% slack for
	// bursts, since QoS targets are tight.
	headroom = 0.7
	// forecastAlpha is the EWMA smoothing factor for the load forecast.
	forecastAlpha = 0.3
	// scaleInSlack requires the fleet to be this much oversized before
	// shrinking, providing hysteresis against burst-driven oscillation.
	scaleInSlack = 1.3
)

// PlannerConfig tunes the controller.
type PlannerConfig struct {
	// Plan is the node plan whose capacity bounds each node.
	Plan Plan
	// MinNodes floors the fleet (default 1).
	MinNodes int
	// MaxNodes caps the fleet (0 = unbounded). Scale-out beyond the cap is
	// clamped and recorded as a held decision so operators can see the
	// planner wanted more capacity than it was allowed.
	MaxNodes int
	// ScaleInCooldown suppresses scale-in for this many observations after
	// any scale action (0 = none). It layers on top of scaleInSlack:
	// slack guards against shrinking a fleet that is barely oversized,
	// cooldown guards against shrinking one that only just changed size.
	// Scale-out is never delayed — under-provisioning costs goodput.
	ScaleInCooldown int
}

// Reasons attached to LastDecision, explaining why the planner acted or
// declined to act on its most recent observation.
const (
	ReasonScaleOut   = "scale-out"
	ReasonScaleIn    = "scale-in"
	ReasonSteady     = "steady"
	ReasonHysteresis = "hysteresis" // scale-in wanted, fleet within slack
	ReasonCooldown   = "cooldown"   // scale-in wanted, cooldown active
	ReasonMaxNodes   = "max-nodes"  // scale-out wanted, fleet at cap
)

// LastDecision is a snapshot of the planner's most recent observation, for
// /statz and /metrics: what it saw, what it wanted, and why it did (or did
// not) act.
type LastDecision struct {
	Decision   Decision
	Reason     string
	OfferedQPS float64
	Forecast   float64
	DemandQPS  float64 // max(forecast, offered): what sizing used
	Need       int     // nodes demanded before hysteresis/cooldown
	Nodes      int     // fleet size after the decision
}

// Counters accumulate planner activity over the run: how often it scaled and
// how often hysteresis, cooldown, or the fleet cap suppressed an action.
type Counters struct {
	Observations   int64
	ScaleOuts      int64
	ScaleIns       int64
	HeldHysteresis int64
	HeldCooldown   int64
	HeldMaxNodes   int64
}

// Planner tracks load and recommends fleet sizes.
type Planner struct {
	cfg      PlannerConfig
	forecast float64
	nodes    int
	primed   bool
	cooldown int // observations until scale-in is allowed again
	last     LastDecision
	counters Counters
}

// NewPlanner builds a planner starting at the configured minimum fleet.
func NewPlanner(cfg PlannerConfig) (*Planner, error) {
	if cfg.Plan.CapacityQPS <= 0 {
		return nil, fmt.Errorf("autoscale: plan capacity %v must be positive", cfg.Plan.CapacityQPS)
	}
	if cfg.MinNodes <= 0 {
		cfg.MinNodes = 1
	}
	if cfg.MaxNodes < 0 {
		return nil, fmt.Errorf("autoscale: max nodes %d must be >= 0", cfg.MaxNodes)
	}
	if cfg.MaxNodes > 0 && cfg.MaxNodes < cfg.MinNodes {
		return nil, fmt.Errorf("autoscale: max nodes %d below min nodes %d", cfg.MaxNodes, cfg.MinNodes)
	}
	if cfg.ScaleInCooldown < 0 {
		return nil, fmt.Errorf("autoscale: scale-in cooldown %d must be >= 0", cfg.ScaleInCooldown)
	}
	return &Planner{cfg: cfg, nodes: cfg.MinNodes}, nil
}

// Nodes returns the current fleet size.
func (p *Planner) Nodes() int { return p.nodes }

// Forecast returns the smoothed load estimate in QPS.
func (p *Planner) Forecast() float64 { return p.forecast }

// Last returns a snapshot of the most recent observation: the decision, the
// reason it fired or was suppressed, and the inputs that drove it. The zero
// value is returned before the first Observe.
func (p *Planner) Last() LastDecision { return p.last }

// Counters returns the accumulated decision counters.
func (p *Planner) Counters() Counters { return p.counters }

// Observe feeds one interval's offered load (QPS) and returns the
// recommendation together with the new fleet size. The fleet is resized
// immediately (the caller models provisioning delay if desired).
func (p *Planner) Observe(offeredQPS float64) (Decision, int) {
	if offeredQPS < 0 {
		offeredQPS = 0
	}
	if !p.primed {
		p.forecast = offeredQPS
		p.primed = true
	} else {
		p.forecast = forecastAlpha*offeredQPS + (1-forecastAlpha)*p.forecast
	}
	// A cooldown of N set at observation T suppresses scale-in through
	// observation T+N.
	inCooldown := p.cooldown > 0
	if inCooldown {
		p.cooldown--
	}
	// Spikes act immediately; the EWMA only smooths the way down.
	demand := math.Max(p.forecast, offeredQPS)
	usable := p.cfg.Plan.CapacityQPS * headroom
	need := int(math.Ceil(demand / usable))
	if need < p.cfg.MinNodes {
		need = p.cfg.MinNodes
	}
	atCap := p.cfg.MaxNodes > 0 && need > p.cfg.MaxNodes
	if atCap {
		need = p.cfg.MaxNodes
	}
	p.counters.Observations++
	p.last = LastDecision{
		Decision:   Hold,
		Reason:     ReasonSteady,
		OfferedQPS: offeredQPS,
		Forecast:   p.forecast,
		DemandQPS:  demand,
		Need:       need,
	}
	switch {
	case need > p.nodes:
		p.nodes = need
		p.cooldown = p.cfg.ScaleInCooldown
		p.counters.ScaleOuts++
		p.last.Decision, p.last.Reason = ScaleOut, ReasonScaleOut
	case need < p.nodes:
		switch {
		case float64(p.nodes) <= float64(need)*scaleInSlack:
			p.counters.HeldHysteresis++
			p.last.Reason = ReasonHysteresis
		case inCooldown:
			p.counters.HeldCooldown++
			p.last.Reason = ReasonCooldown
		default:
			p.nodes = need
			p.cooldown = p.cfg.ScaleInCooldown
			p.counters.ScaleIns++
			p.last.Decision, p.last.Reason = ScaleIn, ReasonScaleIn
		}
	default:
		if atCap {
			// Steady only because the cap clamped the demand.
			p.counters.HeldMaxNodes++
			p.last.Reason = ReasonMaxNodes
		}
	}
	p.last.Nodes = p.nodes
	return p.last.Decision, p.nodes
}

// TimelinePoint records one planning interval for reporting.
type TimelinePoint struct {
	OfferedQPS  float64
	Forecast    float64
	Nodes       int
	Decision    Decision
	Utilization float64 // offered / provisioned capacity
}

// PlanTimeline replays per-interval offered loads through the planner.
func PlanTimeline(p *Planner, offered []float64) []TimelinePoint {
	out := make([]TimelinePoint, 0, len(offered))
	for _, qps := range offered {
		d, n := p.Observe(qps)
		util := 0.0
		if cap := float64(n) * p.cfg.Plan.CapacityQPS; cap > 0 {
			util = qps / cap
		}
		out = append(out, TimelinePoint{
			OfferedQPS:  qps,
			Forecast:    p.Forecast(),
			Nodes:       n,
			Decision:    d,
			Utilization: util,
		})
	}
	return out
}
