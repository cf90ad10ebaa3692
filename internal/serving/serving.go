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

// RunConfig describes one offline serving experiment: services placed on one
// or more GPUs that share one virtual clock.
type RunConfig struct {
	Policy   PolicyKind
	Models   []dnn.ModelID
	Arrivals []trace.Arrival
	// Services overrides the default QoS derivation (2× max-input solo)
	// when non-nil — e.g. the small-DNN experiment.
	Services []*sched.Service
	// Profile is the device model; zero value selects A100Profile. With
	// Devices set, the devices' profile is used instead.
	Profile gpusim.Profile
	// Devices are the GPUs the run serves on, all on one engine, possibly
	// MIG partitions of one device. Empty means one fresh device of Profile.
	Devices []*gpusim.Device
	// Hosts lists, per device, the service indices it serves. Nil means
	// every device serves every service.
	Hosts [][]int
	// Model is the latency model for Abacus; nil gives each device the exact
	// oracle matched to its capacity (tests and quick runs) — pass a trained
	// predictor for fidelity runs.
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
	// Node is the index of the GPU that served (or dropped) the query. A
	// controller-level drop that never reached a GPU carries -1.
	Node int
}

// NewRecord returns the record of a finished or dropped query on GPU node.
func NewRecord(q *sched.Query, node int) Record {
	rec := Record{
		Service:  q.Service.ID,
		Model:    q.Service.Model,
		Input:    q.Input,
		Arrival:  q.Arrival,
		Finish:   q.Finish,
		Dropped:  q.Dropped,
		Violated: q.Violated(),
		QoS:      q.Service.QoS,
		Node:     node,
	}
	if !q.Dropped {
		rec.Latency = q.Latency()
	}
	return rec
}

// Result aggregates a run.
type Result struct {
	Policy   PolicyKind
	Services []*sched.Service
	Records  []Record
	// DurationMS is the span from time zero to the last emission.
	DurationMS float64
	// Utilization is the devices' mean SM utilization.
	Utilization float64
	// Groups is the number of operator groups executed on all devices.
	Groups int64
}

// EnqueueTimes returns when each arrival reaches a scheduler — its
// submission time plus the input transfer (T_comms, Eq. 2) — and the latest
// submission time. It panics on an arrival whose service is out of range.
func EnqueueTimes(arrivals []trace.Arrival, services []*sched.Service, p gpusim.Profile) (times []sim.Time, last float64) {
	times = make([]sim.Time, len(arrivals))
	for i, a := range arrivals {
		if a.Service < 0 || a.Service >= len(services) {
			panic(fmt.Sprintf("serving: arrival service %d out of range", a.Service))
		}
		times[i] = a.Time + dnn.TransferTime(dnn.Get(services[a.Service].Model), a.Input, p)
		last = max(last, a.Time)
	}
	return times, last
}

// Pick returns the index i in [0, n) minimizing load(i), ties toward the
// smallest index: the rule that routes a service hosted on several GPUs of
// one engine. n must be positive.
func Pick(n int, load func(int) float64) int {
	best := 0
	bestLoad := load(0)
	for i := 1; i < n; i++ {
		if l := load(i); l < bestLoad {
			best, bestLoad = i, l
		}
	}
	return best
}

// Run executes the experiment and returns its result. Every device gets its
// own executor and scheduler; an arrival is routed when its transfer
// completes (EnqueueTimes), to its service's only host or, of several hosts,
// to the one with the fewest queued queries, ties to the lowest index.
func Run(cfg RunConfig) Result {
	if len(cfg.Models) == 0 {
		panic("serving: no models")
	}
	devices := cfg.Devices
	if len(devices) == 0 {
		profile := cfg.Profile
		if profile.NumSMs == 0 {
			profile = gpusim.A100Profile()
		}
		devices = []*gpusim.Device{gpusim.New(sim.NewEngine(), profile)}
	}
	eng, profile := devices[0].Engine(), devices[0].Profile()
	for _, dev := range devices {
		if dev.Engine() != eng {
			panic("serving: devices on more than one engine")
		}
	}
	syncCost := cfg.SyncCost
	if syncCost == 0 {
		syncCost = 0.02
	}
	specs := dnn.NewSpecs(profile)

	services := cfg.Services
	if services == nil {
		services = sched.Services(cfg.Models, 2, profile)
	}
	if len(services) != len(cfg.Models) {
		panic("serving: services/models length mismatch")
	}
	hostsOf := placement(cfg.Hosts, len(devices), len(services))

	schedCfg := cfg.Sched
	if schedCfg == (sched.Config{}) {
		schedCfg = sched.DefaultConfig()
	}
	records := make([]Record, 0, len(cfg.Arrivals))
	var lastEmit sim.Time
	execs := make([]*executor.Executor, len(devices))
	schedulers := make([]sched.Scheduler, len(devices))
	for d, dev := range devices {
		sink := func(q *sched.Query) {
			records = append(records, NewRecord(q, d))
			lastEmit = max(lastEmit, q.Finish)
		}
		exec := executor.New(dev, syncCost, specs)
		execs[d] = exec
		switch cfg.Policy {
		case PolicyFCFS:
			schedulers[d] = sched.NewSequential(sched.FCFS, eng, exec, schedCfg, sink)
		case PolicySJF:
			schedulers[d] = sched.NewSequential(sched.SJF, eng, exec, schedCfg, sink)
		case PolicyEDF:
			schedulers[d] = sched.NewSequential(sched.EDF, eng, exec, schedCfg, sink)
		case PolicyAbacus:
			model := cfg.Model
			if model == nil {
				oracle := predictor.ForDevice(dev)
				oracle.Specs = specs
				model = oracle
			}
			schedulers[d] = sched.NewAbacus(eng, exec, model, schedCfg, sink)
		case PolicyMPS:
			schedulers[d] = sched.NewFreeOverlap(eng, dev, sink)
		case PolicyKernelLevel:
			schedulers[d] = sched.NewKernelLevel(eng, exec, schedCfg, sink)
		default:
			panic(fmt.Sprintf("serving: unknown policy %d", cfg.Policy))
		}
	}

	enqueueAt, lastArrival := EnqueueTimes(cfg.Arrivals, services, profile)
	eng.ScheduleBatch(enqueueAt, func(i int) {
		a := cfg.Arrivals[i]
		hosts := hostsOf[a.Service]
		d := hosts[0]
		if len(hosts) > 1 {
			d = hosts[Pick(len(hosts), func(j int) float64 { return float64(schedulers[hosts[j]].QueueLen()) })]
		}
		schedulers[d].Enqueue(&sched.Query{
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
			maxQoS = max(maxQoS, s.QoS)
		}
		drain = 10 * maxQoS
	}
	eng.RunUntil(lastArrival + drain)

	res := Result{Policy: cfg.Policy, Services: services, Records: records, DurationMS: lastEmit}
	for d, dev := range devices {
		res.Utilization += dev.Utilization()
		res.Groups += execs[d].Groups()
	}
	res.Utilization /= float64(len(devices))
	return res
}

// placement turns per-device service lists into per-service device lists,
// in device order; nil hosts puts every service on every device. It panics
// on a host index out of range and on a service with no host.
func placement(hosts [][]int, devices, services int) [][]int {
	out := make([][]int, services)
	if hosts == nil {
		all := make([]int, devices)
		for d := range all {
			all[d] = d
		}
		for s := range out {
			out[s] = all
		}
		return out
	}
	if len(hosts) != devices {
		panic(fmt.Sprintf("serving: %d host lists for %d devices", len(hosts), devices))
	}
	for d := 0; d < devices; d++ {
		for _, s := range hosts[d] {
			if s < 0 || s >= services {
				panic(fmt.Sprintf("serving: device %d hosts service %d, out of range", d, s))
			}
			out[s] = append(out[s], d)
		}
	}
	for s, hs := range out {
		if len(hs) == 0 {
			panic(fmt.Sprintf("serving: service %d has no host", s))
		}
	}
	return out
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
