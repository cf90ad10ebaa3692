package serving

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/runner"
	"abacus/internal/trace"
)

// CapacityConfig controls the peak-QPS search.
type CapacityConfig struct {
	Policy PolicyKind
	Models []dnn.ModelID
	// Model is Abacus's duration model (nil → oracle).
	Model predictor.LatencyModel
	// DurationMS is the probe length per load point (default 6000).
	DurationMS float64
	// LoQPS/HiQPS bracket the search (defaults 5 and 400).
	LoQPS, HiQPS float64
	// ToleranceQPS stops the search (default 4).
	ToleranceQPS float64
	// Seed drives the workload.
	Seed int64
}

// maxViolation is the QoS violation ratio a load must stay under to count
// as supported.
const maxViolation = 0.05

// PeakQPS finds the highest offered load (queries/s) the deployment
// sustains under the policy while keeping the QoS violation ratio below
// maxViolation — the paper's notion of peak throughput with a QoS
// constraint (§7.3), measured directly instead of at one fixed offered
// load. It bisects the bracket, keeping it between the highest sustained
// load and the lowest violating one, and returns the supported load and
// the result measured at it.
func PeakQPS(cfg CapacityConfig) (float64, Result) {
	if len(cfg.Models) == 0 {
		panic("serving: no models")
	}
	if cfg.DurationMS == 0 {
		cfg.DurationMS = 6000
	}
	if cfg.LoQPS == 0 {
		cfg.LoQPS = 5
	}
	if cfg.HiQPS == 0 {
		cfg.HiQPS = 400
	}
	if cfg.ToleranceQPS == 0 {
		cfg.ToleranceQPS = 4
	}
	if cfg.HiQPS <= cfg.LoQPS {
		panic(fmt.Sprintf("serving: bad QPS bracket [%v, %v]", cfg.LoQPS, cfg.HiQPS))
	}

	type outcome struct {
		ok  bool
		res Result
	}
	probe := func(qps float64) outcome {
		gen := trace.NewGenerator(cfg.Models, cfg.Seed)
		res := Run(RunConfig{
			Policy:   cfg.Policy,
			Models:   cfg.Models,
			Arrivals: gen.Poisson(qps, cfg.DurationMS),
			Model:    cfg.Model,
		})
		return outcome{res.ViolationRatio() <= maxViolation, res}
	}

	lo, hi := cfg.LoQPS, cfg.HiQPS
	ends := runner.Map(2, 0, func(i int) outcome {
		return probe([]float64{lo, hi}[i])
	})
	if !ends[0].ok {
		// Even the bracket floor violates; report it as the (non-)capacity.
		return lo, ends[0].res
	}
	if ends[1].ok {
		return hi, ends[1].res // bracket ceiling sustained; capacity ≥ hi
	}
	best := ends[0].res
	for hi-lo > cfg.ToleranceQPS {
		mid := lo + (hi-lo)/2
		if o := probe(mid); o.ok {
			lo, best = mid, o.res
		} else {
			hi = mid
		}
	}
	return lo, best
}
