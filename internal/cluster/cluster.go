// Package cluster implements the paper's cluster-level evaluation (§7.6): a
// multi-node, multi-GPU serving simulation comparing
//
//   - KubeAbacus: Kubernetes-style interference-unaware routing (least
//     loaded GPU) with Abacus performing node-level scheduling on every GPU
//     (all services co-deployed quad-wise), against
//   - Clockwork: a central earliest-deadline-first controller that runs
//     queries sequentially on each GPU with one active model instance at a
//     time (activating a different model pays a weight-swap delay) and
//     drops queries that cannot meet their deadline.
//
// The workload is a synthetic MAF-like trace (see internal/trace and
// DESIGN.md for the substitution rationale).
package cluster

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/runner"
	"abacus/internal/sched"
	"abacus/internal/serving"
	"abacus/internal/sim"
	"abacus/internal/stats"
	"abacus/internal/trace"
)

// Policy selects the cluster scheduler.
type Policy int

// The two compared cluster schedulers.
const (
	KubeAbacus Policy = iota
	Clockwork
)

// String returns the policy's display name.
func (p Policy) String() string {
	switch p {
	case KubeAbacus:
		return "Abacus"
	case Clockwork:
		return "Clockwork"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config describes a cluster run.
type Config struct {
	Policy      Policy
	Nodes       int
	GPUsPerNode int
	Models      []dnn.ModelID // deployed on every GPU
	QoS         float64       // flat QoS target in ms (paper: 100)
	Arrivals    []trace.Arrival
	Profile     gpusim.Profile
	Sched       sched.Config
	Model       predictor.LatencyModel // Abacus duration model; nil → Oracle
	BucketMS    float64                // timeline bucket (default 60 000 = 1 minute)
	DrainMS     float64                // grace period after the last arrival
}

// TimelinePoint is one bucket of the Figure 22 timeline.
type TimelinePoint struct {
	StartMS    float64
	OfferedQPS float64
	Throughput float64 // completed (non-dropped) queries per second
	P99        float64 // over completions in the bucket
	AvgLat     float64
}

// Result aggregates a cluster run.
type Result struct {
	Policy     Policy
	Timeline   []TimelinePoint
	Total      int
	Completed  int
	Dropped    int
	Violations int
	AvgLatency float64
	P99Latency float64
	// EnergyJoules is the fleet's energy under the linear utilization model
	// (the §7.6 energy-efficiency observation).
	EnergyJoules float64
	// Nodes summarizes each GPU's share of the run (node -1 carries
	// Clockwork's controller-level admission drops).
	Nodes []serving.NodeSummary
}

// JoulesPerQuery returns fleet energy per completed query.
func (r *Result) JoulesPerQuery() float64 {
	if r.Completed == 0 {
		return 0
	}
	return r.EnergyJoules / float64(r.Completed)
}

// Throughput returns mean completed queries per second over the run.
func (r *Result) Throughput(durationMS float64) float64 {
	if durationMS <= 0 {
		return 0
	}
	return float64(r.Completed) / (durationMS / 1000)
}

// RunPolicies executes several cluster configurations concurrently — the
// Figure 22 policy comparison side by side. Each configuration owns its
// engine and fleet; a shared Arrivals slice is only read. Results come
// back in configuration order at any parallelism.
func RunPolicies(cfgs []Config, parallel int) []Result {
	return runner.Map(len(cfgs), parallel, func(i int) Result { return Run(cfgs[i]) })
}

// Run executes the cluster simulation.
func Run(cfg Config) Result {
	if cfg.Nodes <= 0 || cfg.GPUsPerNode <= 0 {
		panic("cluster: need at least one node and GPU")
	}
	if len(cfg.Models) == 0 {
		panic("cluster: no models")
	}
	if cfg.QoS <= 0 {
		panic("cluster: QoS target required")
	}
	profile := cfg.Profile
	if profile.NumSMs == 0 {
		profile = gpusim.A100Profile()
	}
	bucket := cfg.BucketMS
	if bucket <= 0 {
		bucket = 60_000
	}

	eng := sim.NewEngine()
	devices := make([]*gpusim.Device, cfg.Nodes*cfg.GPUsPerNode)
	for i := range devices {
		devices[i] = gpusim.New(eng, profile)
	}
	services := make([]*sched.Service, len(cfg.Models))
	for i, id := range cfg.Models {
		services[i] = &sched.Service{ID: i, Model: id, QoS: cfg.QoS}
	}
	drain := cfg.DrainMS
	if drain <= 0 {
		drain = 10 * cfg.QoS
	}

	var records []serving.Record
	switch cfg.Policy {
	case KubeAbacus:
		// Kubernetes-style routing, least outstanding work with ties by
		// index, is serving.Run's rule for a service every GPU hosts.
		records = serving.Run(serving.RunConfig{
			Policy:   serving.PolicyAbacus,
			Models:   cfg.Models,
			Arrivals: cfg.Arrivals,
			Services: services,
			Devices:  devices,
			Model:    cfg.Model,
			Sched:    cfg.Sched,
			DrainMS:  drain,
		}).Records
	case Clockwork:
		ctrl := newClockworkController(devices, dnn.NewSpecs(profile), func(node int) sched.Sink {
			return func(q *sched.Query) { records = append(records, serving.NewRecord(q, node)) }
		})
		routeAt, lastArrival := serving.EnqueueTimes(cfg.Arrivals, services, profile)
		eng.ScheduleBatch(routeAt, func(i int) {
			a := cfg.Arrivals[i]
			ctrl.submit(&sched.Query{ID: int64(i + 1), Service: services[a.Service], Input: a.Input, Arrival: a.Time})
		})
		eng.RunUntil(lastArrival + drain)
	default:
		panic(fmt.Sprintf("cluster: unknown policy %d", cfg.Policy))
	}

	offered := map[int]int{}
	for _, a := range cfg.Arrivals {
		offered[int(a.Time/bucket)]++
	}
	res := summarize(cfg.Policy, records, offered, bucket)
	em := gpusim.A100Energy()
	for _, dev := range devices {
		res.EnergyJoules += dev.Energy(em)
	}
	return res
}

func summarize(policy Policy, records []serving.Record, offered map[int]int, bucket float64) Result {
	res := Result{Policy: policy, Total: len(records)}
	perBucket := map[int][]float64{}
	var all []float64
	var lastEmit float64
	maxBucket := 0
	for b := range offered {
		if b > maxBucket {
			maxBucket = b
		}
	}
	for _, r := range records {
		if r.Finish > lastEmit {
			lastEmit = r.Finish
		}
		if r.Violated {
			res.Violations++
		}
		if r.Dropped {
			res.Dropped++
			continue
		}
		res.Completed++
		lat := r.Latency
		all = append(all, lat)
		b := int(r.Arrival / bucket)
		perBucket[b] = append(perBucket[b], lat)
		if b > maxBucket {
			maxBucket = b
		}
	}
	res.Nodes = serving.SummarizeNodes(records, lastEmit)
	if len(all) > 0 {
		res.AvgLatency = stats.Mean(all)
		res.P99Latency = stats.Percentile(all, 99)
	}
	for b := 0; b <= maxBucket; b++ {
		pt := TimelinePoint{
			StartMS:    float64(b) * bucket,
			OfferedQPS: float64(offered[b]) / (bucket / 1000),
			Throughput: float64(len(perBucket[b])) / (bucket / 1000),
		}
		if lats := perBucket[b]; len(lats) > 0 {
			pt.P99 = stats.Percentile(lats, 99)
			pt.AvgLat = stats.Mean(lats)
		}
		res.Timeline = append(res.Timeline, pt)
	}
	return res
}
