// Package serving wires the Abacus reproduction into a single-GPU serving
// system: it replays an arrival trace against a scheduler (Abacus or one of
// the sequential baselines) on a simulated device and produces the QoS and
// throughput metrics reported across the paper's Figures 14–21.
package serving

import (
	"fmt"
	"sort"

	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/sim"
	"abacus/internal/stats"
	"abacus/internal/trace"
)

// PolicyKind selects the scheduler under test.
type PolicyKind int

// The four evaluated per-GPU policies, plus the unmanaged MPS-style
// free-overlap baseline from the motivation section.
const (
	PolicyFCFS PolicyKind = iota
	PolicySJF
	PolicyEDF
	PolicyAbacus
	PolicyMPS
	PolicyKernelLevel
)

// String returns the paper's label for the policy.
func (p PolicyKind) String() string {
	switch p {
	case PolicyFCFS:
		return "FCFS"
	case PolicySJF:
		return "SJF"
	case PolicyEDF:
		return "EDF"
	case PolicyAbacus:
		return "Abacus"
	case PolicyMPS:
		return "MPS"
	case PolicyKernelLevel:
		return "KernelLevel"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// AllPolicies lists the evaluation's policies in the paper's order.
func AllPolicies() []PolicyKind {
	return []PolicyKind{PolicyFCFS, PolicySJF, PolicyEDF, PolicyAbacus}
}

// RunConfig describes one single-GPU serving experiment.
type RunConfig struct {
	Policy   PolicyKind
	Models   []dnn.ModelID
	Arrivals []trace.Arrival
	// Services overrides the default QoS derivation (2× max-input solo)
	// when non-nil — e.g. the small-DNN experiment.
	Services []*sched.Service
	// Profile is the device model; zero value selects A100Profile.
	Profile gpusim.Profile
	// Device, when non-nil, runs on the given (possibly MIG-partitioned)
	// device instead of a fresh full one. Its engine is used for the run.
	Device *gpusim.Device
	// Model is the latency model for Abacus; nil selects the exact Oracle
	// (tests and quick runs) — pass a trained predictor for fidelity runs.
	Model predictor.LatencyModel
	// Sched carries scheduler knobs; zero value means sched.DefaultConfig.
	Sched sched.Config
	// SyncCost is the per-group synchronization overhead (default 0.02 ms).
	SyncCost float64
	// DrainMS bounds how long after the last arrival the run may continue
	// (default: 10 × the longest QoS target).
	DrainMS float64
}

// Record is the outcome of one query.
type Record struct {
	Service  int
	Model    dnn.ModelID
	Input    dnn.Input
	Arrival  sim.Time
	Finish   sim.Time
	Dropped  bool
	Violated bool
	Latency  float64 // valid when not dropped
	QoS      float64
	// Node is the GPU/node index that served (or dropped) the query.
	// Single-GPU runs leave it 0; cluster runs tag the routed node, and a
	// controller-level drop that never reached a GPU carries -1.
	Node int
}

// Result aggregates a run.
type Result struct {
	Policy   PolicyKind
	Services []*sched.Service
	Records  []Record
	// DurationMS is the span from time zero to the last emission.
	DurationMS float64
	// Utilization is the device's mean SM utilization.
	Utilization float64
	// Groups is the number of operator groups executed.
	Groups int64
}

// Run executes the experiment and returns its result.
func Run(cfg RunConfig) Result {
	if len(cfg.Models) == 0 {
		panic("serving: no models")
	}
	profile := cfg.Profile
	if profile.NumSMs == 0 {
		profile = gpusim.A100Profile()
	}
	var eng *sim.Engine
	dev := cfg.Device
	if dev == nil {
		eng = sim.NewEngine()
		dev = gpusim.New(eng, profile)
	} else {
		eng = dev.Engine()
		profile = dev.Profile()
	}
	syncCost := cfg.SyncCost
	if syncCost == 0 {
		syncCost = 0.02
	}
	specs := dnn.NewSpecs(profile)
	exec := executor.New(dev, syncCost, specs)

	services := cfg.Services
	if services == nil {
		services = sched.Services(cfg.Models, 2, profile)
	}
	if len(services) != len(cfg.Models) {
		panic("serving: services/models length mismatch")
	}

	var records []Record
	var lastEmit sim.Time
	sink := func(q *sched.Query) {
		rec := Record{
			Service: q.Service.ID,
			Model:   q.Service.Model,
			Input:   q.Input,
			Arrival: q.Arrival,
			Finish:  q.Finish,
			Dropped: q.Dropped,
			QoS:     q.Service.QoS,
		}
		if !q.Dropped {
			rec.Latency = q.Latency()
		}
		rec.Violated = q.Violated()
		records = append(records, rec)
		if q.Finish > lastEmit {
			lastEmit = q.Finish
		}
	}

	var scheduler sched.Scheduler
	schedCfg := cfg.Sched
	if schedCfg == (sched.Config{}) {
		schedCfg = sched.DefaultConfig()
	}
	switch cfg.Policy {
	case PolicyFCFS:
		scheduler = sched.NewSequential(sched.FCFS, eng, exec, schedCfg, sink)
	case PolicySJF:
		scheduler = sched.NewSequential(sched.SJF, eng, exec, schedCfg, sink)
	case PolicyEDF:
		scheduler = sched.NewSequential(sched.EDF, eng, exec, schedCfg, sink)
	case PolicyAbacus:
		model := cfg.Model
		if model == nil {
			model = predictor.Oracle{Profile: profile, Specs: specs}
		}
		scheduler = sched.NewAbacus(eng, exec, model, schedCfg, sink)
	case PolicyMPS:
		scheduler = sched.NewFreeOverlap(eng, dev, sink)
	case PolicyKernelLevel:
		scheduler = sched.NewKernelLevel(eng, exec, schedCfg, sink)
	default:
		panic(fmt.Sprintf("serving: unknown policy %d", cfg.Policy))
	}

	// Schedule arrivals: the query is submitted at Arrival.Time; its input
	// transfer (T_comms, Eq. 2) delays when the scheduler sees it.
	var lastArrival float64
	enqueueAt := make([]sim.Time, len(cfg.Arrivals))
	for i, a := range cfg.Arrivals {
		if a.Service < 0 || a.Service >= len(services) {
			panic(fmt.Sprintf("serving: arrival service %d out of range", a.Service))
		}
		enqueueAt[i] = a.Time + dnn.TransferTime(dnn.Get(services[a.Service].Model), a.Input, profile)
		if a.Time > lastArrival {
			lastArrival = a.Time
		}
	}
	eng.ScheduleBatch(enqueueAt, func(i int) {
		a := cfg.Arrivals[i]
		scheduler.Enqueue(&sched.Query{
			ID:      int64(i + 1),
			Service: services[a.Service],
			Input:   a.Input,
			Arrival: a.Time,
		})
	})

	drain := cfg.DrainMS
	if drain <= 0 {
		var maxQoS float64
		for _, s := range services {
			if s.QoS > maxQoS {
				maxQoS = s.QoS
			}
		}
		drain = 10 * maxQoS
	}
	eng.RunUntil(lastArrival + drain)

	return Result{
		Policy:      cfg.Policy,
		Services:    services,
		Records:     records,
		DurationMS:  lastEmit,
		Utilization: dev.Utilization(),
		Groups:      exec.Groups(),
	}
}

// Latencies returns the end-to-end latencies of completed (non-dropped)
// queries, optionally filtered to one service (-1 for all).
func (r *Result) Latencies(service int) []float64 {
	var out []float64
	for _, rec := range r.Records {
		if rec.Dropped || (service >= 0 && rec.Service != service) {
			continue
		}
		out = append(out, rec.Latency)
	}
	return out
}

// TailLatency returns the p-th percentile latency over completed queries of
// the given service (-1 for all). It returns 0 when nothing completed.
func (r *Result) TailLatency(service int, p float64) float64 {
	lats := r.Latencies(service)
	if len(lats) == 0 {
		return 0
	}
	return stats.Percentile(lats, p)
}

// NormalizedTail returns the 99%-ile latency normalized to the QoS target,
// the y-axis of Figures 14, 16, 18, and 20. With multiple services it
// returns the worst (max) normalized tail.
func (r *Result) NormalizedTail() float64 {
	worst := 0.0
	for _, svc := range r.Services {
		lats := r.Latencies(svc.ID)
		if len(lats) == 0 {
			continue
		}
		if v := stats.Percentile(lats, 99) / svc.QoS; v > worst {
			worst = v
		}
	}
	return worst
}

// ViolationRatio returns the fraction of all queries that violated QoS;
// dropped queries count as violations (Figure 15's accounting).
func (r *Result) ViolationRatio() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	bad := 0
	for _, rec := range r.Records {
		if rec.Violated {
			bad++
		}
	}
	return float64(bad) / float64(len(r.Records))
}

// Goodput returns successfully processed queries per second: completed
// within their QoS target, over the active duration (Figure 17's metric).
func (r *Result) Goodput() float64 {
	if r.DurationMS <= 0 {
		return 0
	}
	good := 0
	for _, rec := range r.Records {
		if !rec.Dropped && !rec.Violated {
			good++
		}
	}
	return float64(good) / (r.DurationMS / 1000)
}

// ServiceSummary aggregates one service's outcomes within a Result — the
// per-service shape shared by the online gateway's /statz endpoint and the
// load generator's offline comparison.
type ServiceSummary struct {
	Service   int
	Model     dnn.ModelID
	QoS       float64 // target, ms
	Queries   int
	Completed int
	Dropped   int
	Violated  int     // dropped or finished late (Figure 15 accounting)
	P50       float64 // over completed queries, ms
	P99       float64
	Goodput   float64 // queries completed within QoS per second
}

// PerService returns one summary per deployed service, in service order.
func (r *Result) PerService() []ServiceSummary {
	out := make([]ServiceSummary, len(r.Services))
	for i, svc := range r.Services {
		out[i] = ServiceSummary{Service: svc.ID, Model: svc.Model, QoS: svc.QoS}
	}
	good := make([]int, len(r.Services))
	for _, rec := range r.Records {
		s := &out[rec.Service]
		s.Queries++
		if rec.Dropped {
			s.Dropped++
		} else {
			s.Completed++
			if !rec.Violated {
				good[rec.Service]++
			}
		}
		if rec.Violated {
			s.Violated++
		}
	}
	for i := range out {
		lats := r.Latencies(out[i].Service)
		if len(lats) > 0 {
			ps := stats.Percentiles(lats, 50, 99)
			out[i].P50, out[i].P99 = ps[0], ps[1]
		}
		if r.DurationMS > 0 {
			out[i].Goodput = float64(good[i]) / (r.DurationMS / 1000)
		}
	}
	return out
}

// NodeSummary aggregates one node's (GPU's) outcomes — the per-node shape
// shared by the cluster simulation's result and the sharded gateway's
// reporting. Node -1 collects controller-level drops that never reached a
// GPU (the Clockwork baseline's admission drops).
type NodeSummary struct {
	Node      int
	Queries   int
	Completed int
	Dropped   int
	Violated  int     // dropped or finished late
	P50       float64 // over completed queries, ms
	P99       float64
	Goodput   float64 // queries completed within QoS per second
}

// SummarizeNodes groups records by Node and returns one summary per node
// present, ordered by node index. durationMS scales the goodput column; pass
// a non-positive value to leave goodput zero.
func SummarizeNodes(records []Record, durationMS float64) []NodeSummary {
	byNode := map[int]*NodeSummary{}
	lats := map[int][]float64{}
	good := map[int]int{}
	for _, rec := range records {
		s := byNode[rec.Node]
		if s == nil {
			s = &NodeSummary{Node: rec.Node}
			byNode[rec.Node] = s
		}
		s.Queries++
		if rec.Dropped {
			s.Dropped++
		} else {
			s.Completed++
			lats[rec.Node] = append(lats[rec.Node], rec.Latency)
			if !rec.Violated {
				good[rec.Node]++
			}
		}
		if rec.Violated {
			s.Violated++
		}
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	out := make([]NodeSummary, 0, len(nodes))
	for _, n := range nodes {
		s := byNode[n]
		if l := lats[n]; len(l) > 0 {
			ps := stats.Percentiles(l, 50, 99)
			s.P50, s.P99 = ps[0], ps[1]
		}
		if durationMS > 0 {
			s.Goodput = float64(good[n]) / (durationMS / 1000)
		}
		out = append(out, *s)
	}
	return out
}

// Completed returns the number of non-dropped queries.
func (r *Result) Completed() int {
	n := 0
	for _, rec := range r.Records {
		if !rec.Dropped {
			n++
		}
	}
	return n
}

// DropRatio returns the fraction of queries dropped.
func (r *Result) DropRatio() float64 {
	if len(r.Records) == 0 {
		return 0
	}
	n := 0
	for _, rec := range r.Records {
		if rec.Dropped {
			n++
		}
	}
	return float64(n) / float64(len(r.Records))
}
