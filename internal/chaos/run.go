package chaos

import (
	"fmt"
	"sync/atomic"

	"abacus/internal/admit"
	"abacus/internal/calib"
	"abacus/internal/dnn"
	"abacus/internal/fleet"
	"abacus/internal/rng"
	"abacus/internal/scaler"
	"abacus/internal/sched"
	"abacus/internal/sim"
	"abacus/internal/stats"
	"abacus/internal/trace"
	"abacus/internal/workload"
)

// RetryConfig, present on a Scenario, gives the virtual client its retry
// behaviour; the schedule is the retry constants below. Unlike the
// wall-clock server.RetryPolicy, everything here is virtual ms on the
// simulation clock, so retry schedules replay exactly.
type RetryConfig struct{}

// The virtual client's retry schedule: exponential backoff without
// jitter, raised to a rejection's Retry-After hint when that is longer.
const (
	// retryAttempts bounds total tries, first included.
	retryAttempts = 3
	// retryBaseBackoffMS seeds the exponential schedule, in virtual ms.
	retryBaseBackoffMS = 10.0
	// retryMultiplier grows the backoff between attempts.
	retryMultiplier = 2
	// retryMaxBackoffMS caps a single backoff.
	retryMaxBackoffMS = 200.0
)

// The scenario's serving constants.
const (
	// qosFactor scales QoS targets (the paper's setting).
	qosFactor = 2
	// queueCap bounds admitted-but-unfinished queries per service.
	queueCap = 64
)

// Scenario is one replayable chaos experiment.
type Scenario struct {
	Name string
	// Models are the co-located services (default ResNet-152 + Inception-v3).
	Models []dnn.ModelID
	// Nodes is how many per-GPU nodes serve the deployment (default 1). With
	// several, every node hosts every model (the replicated placement the
	// online gateway defaults to for small deployments), all devices share
	// one virtual clock, and the affinity router sends each query to the
	// least-loaded node whose drift detector for its service is quiet —
	// fault-driven migration included in the determinism guarantee.
	Nodes int
	// QPS is the total Poisson arrival rate (default 30).
	QPS float64
	// DurationMS is the arrival-window length in virtual ms (default 10000).
	DurationMS float64
	// Seed drives arrivals, fault coin flips and predictor noise; same
	// seed + same script ⇒ identical report.
	Seed int64
	// Script holds the fault windows.
	Script Script
	// Degrade tunes the degraded-mode controller (zero value = enabled with
	// defaults; Disabled for the no-recovery baseline).
	Degrade admit.DegradeConfig
	// Calib, when non-nil, enables online latency-model calibration: the
	// scheduler and admission predict through a calib.Calibrated chain and
	// every completion feeds the tracker (per node in cluster runs). Nil
	// leaves calibration off, so the pre-calibration scenario floors are
	// untouched.
	Calib *calib.Config
	// Retry, when non-nil, gives the virtual client retry behavior.
	Retry *RetryConfig
	// PredictCache, when positive, memoizes the pure oracle behind the
	// perturbation layer with a predictor.Memoized of that capacity. The
	// cache sits below Perturbed — caching above it would change the noise
	// stream — so reports stay byte-identical cache on or off.
	PredictCache int
	// Workload, when non-nil, replaces the default Poisson arrival source
	// with a declarative workload spec (internal/workload): phases, bursty
	// processes, client cohorts. The spec binds against Models; its duration
	// overrides DurationMS and its seed falls back to Seed when unset. QPS is
	// ignored (the report records the spec's realized rate instead).
	Workload *workload.Spec
	// MAF, when non-nil, replaces the arrival source with the fig22
	// synthetic Azure-Functions-like trace (diurnal sinusoid over per-minute
	// Poisson rates, optional burst minutes). Its duration overrides
	// DurationMS; QPS is ignored (the report records the realized rate).
	// Mutually exclusive with Workload.
	MAF *trace.MAFConfig
	// Autoscale, when non-nil, replaces the fixed Nodes fleet with the live
	// elastic scaler: the run starts at MinNodes replicated nodes, a
	// virtual-time control loop observes offered QPS each interval, and
	// node adds (with a modeled warm-up window served only a probe trickle)
	// and drains (graceful: in-flight queries finish, then the node
	// retires) play out as ordinary engine events — the determinism
	// guarantee is unchanged. Nodes must be zero or equal MinNodes; fault
	// windows may only target the founding nodes.
	Autoscale *scaler.Config
}

// Report is one scenario's outcome. All fields derive from virtual time and
// seeded randomness only, so a report is byte-identical across runs and
// parallelism widths.
type Report struct {
	Name string  `json:"name"`
	Seed int64   `json:"seed"`
	QPS  float64 `json:"qps"`

	Sent     int64 `json:"sent"`     // client requests (arrivals)
	Attempts int64 `json:"attempts"` // send attempts incl. retries
	Retries  int64 `json:"retries"`

	Outcomes

	RejectedDeadline int64 `json:"rejected_deadline"` // verdicts, not requests
	RejectedQueue    int64 `json:"rejected_queue"`
	RejectedDegraded int64 `json:"rejected_degraded"`
	GaveUp           int64 `json:"gave_up"` // requests never admitted within budget

	FaultDrops      int64 `json:"fault_drops"` // requests lost in transit
	FaultDuplicates int64 `json:"fault_duplicates"`
	FaultMalformed  int64 `json:"fault_malformed"`

	DegradeTransitions int64   `json:"degrade_transitions"`
	DegradeShed        int64   `json:"degrade_shed"`
	FinalDivergence    float64 `json:"final_divergence"`

	// Migrations counts admissions routed away from a degraded replica —
	// zero outside cluster runs.
	Migrations int64 `json:"migrations,omitempty"`

	P50MS float64 `json:"p50_ms"`
	P99MS float64 `json:"p99_ms"`
	// Goodput is the deadline-met rate among admitted queries — the QoS
	// floor chaos scenarios assert.
	Goodput float64 `json:"goodput"`

	// Calibrated reports whether online calibration was active for the run.
	Calibrated bool `json:"calibrated"`
	// Services breaks the outcome down per co-located service, in service
	// order: each carries its own admission, drift, and calibration state so
	// scenarios can assert that one service's fault did not bleed into its
	// neighbours. Cluster runs aggregate across nodes (sums for counters,
	// worst-case for margins and divergence).
	Services []ServiceReport `json:"services"`
	// Nodes breaks a cluster run down per node; nil for single-node runs.
	// Elastic runs list every node that ever existed, retired ones
	// included, each with its lifetime Window.
	Nodes []NodeReport `json:"nodes,omitempty"`
	// Autoscale summarizes the elastic control loop; nil for fixed fleets.
	Autoscale *AutoscaleReport `json:"autoscale,omitempty"`
}

// Outcomes counts admitted queries by fate. The run, each service, each
// node and each node's service row carry one.
type Outcomes struct {
	Admitted  int64 `json:"admitted"`
	Completed int64 `json:"completed"`
	Good      int64 `json:"good"` // completed within deadline
	Violated  int64 `json:"violated"`
	Dropped   int64 `json:"dropped"` // admitted, then dropped by the controller
}

// AutoscaleReport is the elastic run's scaling summary: what the control
// loop did and what it cost against static peak provisioning.
type AutoscaleReport struct {
	MinNodes   int     `json:"min_nodes"`
	MaxNodes   int     `json:"max_nodes"`
	IntervalMS float64 `json:"interval_ms"`
	WarmupMS   float64 `json:"warmup_ms"`

	Ticks          int64 `json:"ticks"`
	ScaleOuts      int64 `json:"scale_outs"` // node-add actions
	ScaleIns       int64 `json:"scale_ins"`  // node-drain actions
	HeldHysteresis int64 `json:"held_hysteresis"`
	HeldCooldown   int64 `json:"held_cooldown"`
	HeldMaxNodes   int64 `json:"held_max_nodes"`

	PeakNodes  int     `json:"peak_nodes"`
	FinalNodes int     `json:"final_nodes"` // live when the run ended
	EndMS      float64 `json:"end_ms"`      // final virtual instant, drain included

	// NodeMS is accumulated node-time; StaticPeakNodeMS is what a fixed
	// fleet of PeakNodes would have burned over the same span. SavedFrac is
	// the node-hours-saved figure TestAutoscaleDiurnalAcceptance holds.
	NodeMS           float64 `json:"node_ms"`
	StaticPeakNodeMS float64 `json:"static_peak_node_ms"`
	SavedFrac        float64 `json:"node_ms_saved_frac"`

	ForecastQPS float64 `json:"forecast_qps"` // EWMA at end of run
}

// ServiceReport is one service's slice of a chaos report.
type ServiceReport struct {
	Service int    `json:"service"`
	Model   string `json:"model"`

	Outcomes

	RejectedDegraded   int64   `json:"rejected_degraded"`
	DegradeActive      bool    `json:"degrade_active"`
	DegradeTransitions int64   `json:"degrade_transitions"`
	Divergence         float64 `json:"divergence_ewma"`
	Margin             float64 `json:"margin"`

	CalibSlope       float64 `json:"calib_slope"`
	CalibInterceptMS float64 `json:"calib_intercept_ms"`
	CalibSamples     int64   `json:"calib_samples"`
}

// NodeReport is one node's slice of a cluster chaos report.
type NodeReport struct {
	Node int `json:"node"`

	// Routed counts admissions the router placed here; MigratedIn the
	// subset placed here because a degraded sibling was skipped.
	Routed     int64 `json:"routed"`
	MigratedIn int64 `json:"migrated_in"`

	Outcomes

	DegradeTransitions int64   `json:"degrade_transitions"`
	DegradeShed        int64   `json:"degrade_shed"`
	FinalDivergence    float64 `json:"final_divergence"`

	// Services is the per-node, per-service breakdown, in service order.
	Services []ServiceReport `json:"services"`

	// Window is the node's lifetime in elastic runs: provisioned at
	// FirstMS, retired (or run over) at LastMS. Per-node rates must be
	// judged against this window, not the whole run — a node retired in
	// the trough served a fraction of the span, and dividing its counts by
	// the full run would dilute them. Nil for fixed fleets.
	Window *NodeWindow `json:"window,omitempty"`
}

// NodeWindow bounds one elastic node's lifetime in virtual ms.
type NodeWindow struct {
	FirstMS float64 `json:"first_ms"`
	LastMS  float64 `json:"last_ms"`
}

// request is one virtual client's state across attempts.
type request struct {
	idx      int
	svc      int
	in       dnn.Input
	deadline sim.Time
	attempts int
}

// hNode is one node inside the harness: its fleet stack on the shared
// engine, its report, and its lifecycle phase. A fixed fleet's nodes stay
// Active; only elastic runs move them.
type hNode struct {
	*fleet.Stack
	id    int
	rep   *NodeReport // nil for single-node runs
	phase scaler.Phase
}

func (n *hNode) Phase() scaler.Phase   { return n.phase }
func (n *hNode) Hosts(int) bool        { return true }
func (n *hNode) Degraded(svc int) bool { return n.Adm.Degrade().Active(svc) }
func (n *hNode) Load() float64         { return n.Adm.BacklogMS() }
func (n *hNode) Clock() float64        { return float64(n.RT.Engine().Now()) }

// harness wires one scenario run; everything runs on the engine goroutine.
type harness struct {
	sc          Scenario
	maxAttempts int // tries per request, first included: 1 unless the scenario retries
	eng         *sim.Engine
	specs       *dnn.Specs // the run's kernel-spec table, shared by every node
	nodes       []*hNode
	probes      []atomic.Int64                  // per-service routing decisions (fleet.Route)
	pending     map[*sched.Query]admit.Decision // admitted, not yet resolved
	rep         *Report
	lats        []float64

	ctrl        *scaler.Controller // nil for fixed fleets
	tickQueries int64              // offered arrivals since the last scale tick
}

// addNode builds node id on the run's engine, in the given phase, at
// virtual time now. Cluster runs give every node its own report; elastic
// runs also open its lifetime window.
func (h *harness) addNode(id int, now sim.Time, phase scaler.Phase) error {
	sc := h.sc
	n := &hNode{id: id, phase: phase}
	st, err := fleet.NewStack(fleet.Config{
		Models:       sc.Models,
		QoSFactor:    qosFactor,
		QueueCap:     queueCap,
		Degrade:      sc.Degrade,
		PredictCache: sc.PredictCache,
		// Distinct noise streams per node; node 0 keeps the scenario seed
		// so single-node reports are unchanged by the cluster refactor.
		Perturb:     true,
		PerturbSeed: sc.Seed + int64(id),
		Calib:       sc.Calib,
		Engine:      h.eng,
		Specs:       h.specs,
		OnResult:    func(q *sched.Query) { h.onResult(n, q) },
	})
	if err != nil {
		return err
	}
	n.Stack = st
	if sc.Nodes > 1 || h.ctrl != nil {
		n.rep = &NodeReport{Node: id, Services: serviceRows(st.RT.Services())}
		if h.ctrl != nil {
			n.rep.Window = &NodeWindow{FirstMS: float64(now)}
		}
	}
	h.nodes = append(h.nodes, n)
	return nil
}

// serviceRows returns one empty report row per service.
func serviceRows(services []*sched.Service) []ServiceReport {
	rows := make([]ServiceReport, len(services))
	for i, svc := range services {
		rows[i] = ServiceReport{Service: i, Model: svc.Model.String(), CalibSlope: 1}
	}
	return rows
}

// newSpecs builds each run's kernel-spec table; a test wraps it to watch
// the table's lifetime.
var newSpecs = fleet.NewSpecs

// Run executes one scenario to completion in virtual time.
func Run(sc Scenario) (*Report, error) {
	if sc.Name == "" {
		sc.Name = "unnamed"
	}
	if len(sc.Models) == 0 {
		sc.Models = []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	}
	if sc.Nodes == 0 {
		sc.Nodes = 1
	}
	if sc.Nodes < 1 {
		return nil, fmt.Errorf("chaos: %d nodes", sc.Nodes)
	}
	if sc.QPS <= 0 {
		sc.QPS = 30
	}
	if sc.DurationMS <= 0 {
		sc.DurationMS = 10000
	}
	var compiled *workload.Compiled
	if sc.Workload != nil {
		if sc.MAF != nil {
			return nil, fmt.Errorf("chaos: Workload and MAF are mutually exclusive")
		}
		var err error
		compiled, err = sc.Workload.Bind(sc.Models, sc.Seed)
		if err != nil {
			return nil, err
		}
		sc.DurationMS = sc.Workload.DurationMS
	}
	if sc.MAF != nil {
		sc.DurationMS = sc.MAF.DurationMS
	}
	var ctrl *scaler.Controller
	if sc.Autoscale != nil {
		var err error
		ctrl, err = scaler.New(*sc.Autoscale)
		if err != nil {
			return nil, err
		}
		min := ctrl.Config().MinNodes
		if sc.Nodes != 1 && sc.Nodes != min {
			return nil, fmt.Errorf("chaos: autoscale starts at MinNodes %d, not Nodes %d", min, sc.Nodes)
		}
		sc.Nodes = min
	}
	if err := sc.Script.Validate(); err != nil {
		return nil, err
	}
	for _, w := range sc.Script.Windows {
		if w.Node >= sc.Nodes {
			return nil, fmt.Errorf("chaos: %s window targets node %d of %d", w.Kind, w.Node, sc.Nodes)
		}
	}

	h := &harness{
		sc:          sc,
		maxAttempts: 1,
		pending:     make(map[*sched.Query]admit.Decision),
		rep:         &Report{Name: sc.Name, Seed: sc.Seed, QPS: sc.QPS},
		ctrl:        ctrl,
	}
	if sc.Retry != nil {
		h.maxAttempts = retryAttempts
	}

	// One clock, N devices: every node's runtime shares the engine, so
	// per-node fault windows and cross-node routing are one ordered event
	// stream. The nodes share one spec table too, which dies with the run.
	h.eng = sim.NewEngine()
	h.specs = newSpecs()
	for id := 0; id < sc.Nodes; id++ {
		if err := h.addNode(id, 0, scaler.Active); err != nil {
			return nil, err
		}
	}
	h.probes = make([]atomic.Int64, len(sc.Models))
	h.rep.Calibrated = sc.Calib != nil
	h.rep.Services = serviceRows(h.nodes[0].RT.Services())

	// Fault windows first, so a window opening at t applies before any
	// arrival or retry scheduled at the same instant; scale ticks next, so
	// a tick at t sizes the fleet before that instant's arrivals.
	for _, w := range sc.Script.Windows {
		h.scheduleWindow(w)
	}
	if ctrl != nil {
		interval := ctrl.Config().IntervalMS
		var ticks []sim.Time
		for t := interval; t <= sc.DurationMS; t += interval {
			ticks = append(ticks, t)
		}
		h.eng.ScheduleBatch(ticks, func(i int) { h.scaleTick(ticks[i]) })
	}
	var arrivals []trace.Arrival
	switch {
	case compiled != nil:
		arrivals = compiled.Materialize()
		// The offered rate is a property of the spec, not a knob; report the
		// realized mean so floors stay meaningful.
		h.rep.QPS = float64(len(arrivals)) / (sc.DurationMS / 1000)
	case sc.MAF != nil:
		arrivals = trace.NewGenerator(sc.Models, sc.Seed).MAF(*sc.MAF)
		h.rep.QPS = float64(len(arrivals)) / (sc.DurationMS / 1000)
	default:
		arrivals = trace.NewGenerator(sc.Models, sc.Seed).Poisson(sc.QPS, sc.DurationMS)
	}
	services := h.nodes[0].RT.Services()
	h.eng.ScheduleBatch(trace.Times(arrivals), func(i int) {
		a := arrivals[i]
		r := &request{idx: i, svc: a.Service, in: a.Input, deadline: a.Time + services[a.Service].QoS}
		h.attempt(r, a.Time)
	})
	h.rep.Sent = int64(len(arrivals))
	h.eng.Run()

	h.finalize()
	if len(h.pending) != 0 {
		return nil, fmt.Errorf("chaos: %d queries still pending after drain", len(h.pending))
	}
	return h.rep, nil
}

// finalize folds drift, calibration, and latency state into the report.
// Cluster runs fold each service's state across nodes with admit.Status's
// and calib.Status's Merge.
func (h *harness) finalize() {
	var drift admit.Status
	svcDrift := make([]admit.Status, len(h.rep.Services))
	var cal calib.Status
	for _, n := range h.nodes {
		st := n.Adm.Degrade().Snapshot()
		drift.Merge(st)
		perSvc := n.Adm.Degrade().ServiceSnapshots()
		for i, ds := range perSvc {
			svcDrift[i].Merge(ds)
		}
		var cs calib.Status
		if n.Tracker != nil {
			cs = n.Tracker.Snapshot()
			cal.Merge(cs)
		}
		if n.rep != nil {
			n.rep.DegradeTransitions, n.rep.DegradeShed, n.rep.FinalDivergence = st.Transitions, st.Shed, st.Divergence
			setServices(n.rep.Services, perSvc, cs)
		}
	}
	h.rep.DegradeTransitions, h.rep.DegradeShed, h.rep.FinalDivergence = drift.Transitions, drift.Shed, drift.Divergence
	setServices(h.rep.Services, svcDrift, cal)
	if len(h.lats) > 0 {
		ps := stats.Percentiles(h.lats, 50, 99)
		h.rep.P50MS, h.rep.P99MS = ps[0], ps[1]
	}
	if h.rep.Admitted > 0 {
		h.rep.Goodput = float64(h.rep.Good) / float64(h.rep.Admitted)
	}
	if h.ctrl != nil {
		h.finalizeAutoscale()
	}
	for _, n := range h.nodes {
		if n.rep != nil {
			h.rep.Nodes = append(h.rep.Nodes, *n.rep)
		}
	}
}

// setServices writes per-service drift and calibration state into report
// rows; a service without a calibration entry keeps the identity fit.
func setServices(rows []ServiceReport, drift []admit.Status, cal calib.Status) {
	for i, ds := range drift {
		r := &rows[i]
		r.RejectedDegraded, r.DegradeActive, r.DegradeTransitions = ds.Shed, ds.Active, ds.Transitions
		r.Divergence, r.Margin = ds.Divergence, ds.Margin
	}
	for _, e := range cal.Services {
		r := &rows[e.Service]
		r.CalibSlope, r.CalibInterceptMS, r.CalibSamples = e.Slope, e.Intercept, e.Samples
	}
}

// scheduleWindow arms one fault window's open and close events on its
// target node (node 0 unless the window names one).
func (h *harness) scheduleWindow(w Window) {
	n := h.nodes[w.Node]
	eng := h.eng
	dev := n.RT.Device()
	switch w.Kind {
	case KindGPUThrottle:
		mem := w.Mem
		if mem == 0 {
			mem = w.Magnitude
		}
		eng.ScheduleAt(sim.Time(w.Start), func() { dev.SetDegradation(w.Magnitude, mem) })
		eng.ScheduleAt(sim.Time(w.End), func() { dev.SetDegradation(1, 1) })
	case KindLaunchStall:
		eng.ScheduleAt(sim.Time(w.Start), func() { dev.SetLaunchStall(w.Magnitude) })
		eng.ScheduleAt(sim.Time(w.End), func() { dev.SetLaunchStall(0) })
	case KindPredictorBias:
		if w.Model != "" {
			// Validated by Script.Validate, so the name resolves.
			id, err := dnn.ModelIDByName(w.Model)
			if err != nil {
				panic(err)
			}
			eng.ScheduleAt(sim.Time(w.Start), func() {
				n.Perturb.SetModelBias(id, w.Magnitude)
				n.Adm.InvalidateCache()
			})
			eng.ScheduleAt(sim.Time(w.End), func() {
				n.Perturb.SetModelBias(id, 1)
				n.Adm.InvalidateCache()
			})
			break
		}
		eng.ScheduleAt(sim.Time(w.Start), func() {
			n.Perturb.SetBias(w.Magnitude)
			n.Adm.InvalidateCache()
		})
		eng.ScheduleAt(sim.Time(w.End), func() {
			n.Perturb.SetBias(1)
			n.Adm.InvalidateCache()
		})
	case KindPredictorNoise:
		eng.ScheduleAt(sim.Time(w.Start), func() {
			n.Perturb.SetNoise(w.Magnitude)
			n.Adm.InvalidateCache()
		})
		eng.ScheduleAt(sim.Time(w.End), func() {
			n.Perturb.SetNoise(0)
			n.Adm.InvalidateCache()
		})
	}
	// Request-fault kinds (drop/duplicate/malformed) act per attempt in
	// attempt(), not via scheduled state changes.
}

// attempt plays one client send at virtual time now.
func (h *harness) attempt(r *request, now sim.Time) {
	r.attempts++
	h.rep.Attempts++
	// Every attempt is offered pressure the control loop should see,
	// whether or not admission accepts it.
	if h.ctrl != nil {
		h.tickQueries++
	}

	// Transit faults, in a fixed order: a corrupted body reaches the
	// gateway (and is rejected there); a dropped request never does.
	if w, ok := h.sc.Script.active(KindMalformed, float64(now)); ok &&
		h.coin(r.idx, r.attempts, 0) < w.Magnitude {
		h.rep.FaultMalformed++
		// The gateway answers 400; clients do not retry malformed verdicts.
		h.rep.GaveUp++
		return
	}
	if w, ok := h.sc.Script.active(KindDrop, float64(now)); ok &&
		h.coin(r.idx, r.attempts, 1) < w.Magnitude {
		h.rep.FaultDrops++
		// Lost in transit: the client notices via timeout and may retry.
		h.retryOrGiveUp(r, now, 0)
		return
	}

	sloMS := float64(r.deadline - now)
	if sloMS <= 0 {
		h.rep.RejectedDeadline++
		h.rep.GaveUp++
		return
	}
	n, migrated := fleet.Route(h.nodes, r.svc, h.probes)
	q, d := n.Admit(now, r.svc, r.in, sloMS)
	if q == nil {
		switch d.Reason {
		case admit.ReasonQueueFull:
			h.rep.RejectedQueue++
		case admit.ReasonDegraded:
			h.rep.RejectedDegraded++
		default:
			h.rep.RejectedDeadline++
		}
		h.retryOrGiveUp(r, now, d.RetryMS)
		return
	}

	h.tally(n, r.svc, func(o *Outcomes) { o.Admitted++ })
	if n.rep != nil {
		n.rep.Routed++
		if migrated {
			n.rep.MigratedIn++
			h.rep.Migrations++
		}
	}
	h.pending[q] = d

	// A duplicated request hits the gateway's idempotency layer and is
	// suppressed without a second execution.
	if w, ok := h.sc.Script.active(KindDuplicate, float64(now)); ok &&
		h.coin(r.idx, r.attempts, 2) < w.Magnitude {
		h.rep.FaultDuplicates++
	}
}

// retryOrGiveUp schedules the next attempt if the retry budget (attempts and
// SLO deadline) allows, else finalizes the request as given up.
func (h *harness) retryOrGiveUp(r *request, now sim.Time, hintMS float64) {
	if r.attempts >= h.maxAttempts {
		h.rep.GaveUp++
		return
	}
	backoff := retryBaseBackoffMS
	for i := 1; i < r.attempts; i++ {
		backoff *= retryMultiplier
		if backoff >= retryMaxBackoffMS {
			backoff = retryMaxBackoffMS
			break
		}
	}
	if hintMS > backoff {
		backoff = hintMS
	}
	wake := now + sim.Time(backoff)
	if wake >= r.deadline {
		h.rep.GaveUp++
		return
	}
	h.rep.Retries++
	h.eng.ScheduleAt(wake, func() { h.attempt(r, wake) })
}

// onResult is a node runtime's sink (engine goroutine).
func (h *harness) onResult(n *hNode, q *sched.Query) {
	d, ok := h.pending[q]
	if !ok {
		return
	}
	delete(h.pending, q)
	n.Resolve(q, d)
	if n.phase == scaler.Draining && n.Adm.Outstanding() == 0 {
		// Last in-flight query resolved: graceful drain completes, the node
		// retires at this exact virtual instant.
		h.retireNode(n, h.eng.Now())
	}
	svc := q.Service.ID
	if q.Dropped {
		h.tally(n, svc, func(o *Outcomes) { o.Dropped++ })
		return
	}
	h.lats = append(h.lats, q.Latency())
	violated := q.Violated()
	h.tally(n, svc, func(o *Outcomes) {
		o.Completed++
		if violated {
			o.Violated++
		} else {
			o.Good++
		}
	})
}

// tally applies f to every Outcomes a query of service svc on node n feeds:
// the run's, the service's and, in cluster runs, the node's and its row's.
func (h *harness) tally(n *hNode, svc int, f func(*Outcomes)) {
	f(&h.rep.Outcomes)
	f(&h.rep.Services[svc].Outcomes)
	if n.rep != nil {
		f(&n.rep.Outcomes)
		f(&n.rep.Services[svc].Outcomes)
	}
}

// coin returns a deterministic uniform draw in [0, 1) keyed by (seed,
// request, attempt, salt) — a splitmix64 keyed mix, so fault decisions are
// independent of scheduling or parallelism.
func (h *harness) coin(idx, attempt, salt int) float64 {
	return float64(rng.Keyed(uint64(h.sc.Seed), uint64(idx), uint64(attempt), uint64(salt))>>11) / (1 << 53)
}
