// Package fleet is the serving system that both clocks host. NewStack builds
// one node — device, Abacus runtime, admitter and the latency-model
// decorators — in one fixed order with one refit rule, and Route picks the
// node a query goes to. The wall-clock gateway (internal/server) and the
// virtual-time harness (internal/chaos) are its callers: they differ in the
// clock that drives each node's engine and in how a node publishes its state
// to the router, not in what a node is or how a query finds one.
package fleet

import (
	"sync/atomic"

	"abacus/internal/admit"
	"abacus/internal/calib"
	"abacus/internal/core"
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/scaler"
	"abacus/internal/sched"
	"abacus/internal/sim"
)

// Config describes one node's stack.
type Config struct {
	// Models are the node's services, in node-local order.
	Models []dnn.ModelID
	// QoSFactor scales QoS targets over max-input solo latency (default 2).
	QoSFactor float64
	// Model is the base duration model; nil selects the exact oracle.
	Model predictor.LatencyModel
	// Sched carries controller knobs; zero value = sched.DefaultConfig.
	Sched sched.Config
	// SyncCost is the per-group synchronization cost the executor charges
	// and admission predicts with (default 0.02 ms).
	SyncCost float64
	// QueueCap bounds admitted-but-unfinished queries per service.
	QueueCap int
	// Degrade tunes the admitter's degraded-mode controller.
	Degrade admit.DegradeConfig
	// PredictCache, when positive, memoizes the base model in a cache of
	// that many group signatures.
	PredictCache int
	// Perturb adds the fault-injection layer (predictor.Perturbed, healthy
	// until a fault window sets it), seeded with PerturbSeed. Only a host
	// that injects predictor faults asks for it: wrapping a model hides the
	// trained MLP's predictor.EncodedPredictor fast path.
	Perturb     bool
	PerturbSeed int64
	// Calib, when non-nil, corrects every prediction with a per-service
	// tracker fed by the host (Stack.Tracker). Its OnUpdate is replaced.
	Calib *calib.Config
	// Engine is the clock the node's device runs on; nil gives the node its
	// own. Nodes that share one engine share one virtual clock.
	Engine *sim.Engine
	// Specs is the kernel-spec table the node runs on; nil gives the node
	// its own. A host builds one table and shares it among all its nodes.
	Specs *dnn.Specs
	// OnResult receives every finished or dropped query exactly once.
	OnResult func(*sched.Query)
}

// Stack is one node's serving stack.
type Stack struct {
	RT      *core.Runtime
	Adm     *admit.Admitter
	Memo    *predictor.Memoized  // nil when the predict cache is off
	Perturb *predictor.Perturbed // nil unless Config.Perturb
	Tracker *calib.Tracker       // nil when calibration is off
}

// NewSpecs returns an empty kernel-spec table for the device profile
// NewStack builds nodes on. A host builds one and passes it to every node
// it builds as Config.Specs.
func NewSpecs() *dnn.Specs { return dnn.NewSpecs(gpusim.A100Profile()) }

// NewStack builds one node. The scheduler and the admitter predict through
// the same model, Calibrated?(Perturbed?(Memo?(base))), each layer present
// only when configured. The memo sits below everything stateful, so it
// caches pure values and never goes stale. A refit of service s moves only
// s's correction, which reaches solo predictions of s alone; the one action
// it takes is dropping the admitter's memoized solo latencies of s.
func NewStack(cfg Config) (*Stack, error) {
	profile := gpusim.A100Profile()
	eng := cfg.Engine
	if eng == nil {
		eng = sim.NewEngine()
	}
	syncCost := cfg.SyncCost
	if syncCost == 0 {
		syncCost = 0.02
	}
	specs := cfg.Specs
	if specs == nil {
		specs = NewSpecs()
	}
	st := &Stack{}
	model := cfg.Model
	if model == nil {
		model = predictor.Oracle{Profile: profile, Specs: specs}
	}
	if cfg.PredictCache > 0 {
		st.Memo = predictor.NewMemoized(model, cfg.PredictCache)
		model = st.Memo
	}
	if cfg.Perturb {
		st.Perturb = predictor.NewPerturbed(model, 1, 0, cfg.PerturbSeed)
		model = st.Perturb
	}
	if cfg.Calib != nil {
		cc := *cfg.Calib
		// st.Adm is assigned below, before any feedback can arrive.
		cc.OnUpdate = func(svc int) { st.Adm.InvalidateService(svc) }
		st.Tracker = calib.NewTracker(cc, cfg.Models)
		model = calib.NewCalibrated(model, st.Tracker)
	}
	rt, err := core.New(core.Config{
		Models:    cfg.Models,
		QoSFactor: cfg.QoSFactor,
		Model:     model,
		Sched:     cfg.Sched,
		SyncCost:  syncCost,
		Device:    gpusim.New(eng, profile),
		Specs:     specs,
		OnResult:  cfg.OnResult,
	})
	if err != nil {
		return nil, err
	}
	st.RT = rt
	st.Adm = admit.New(model, profile, rt.Services(), cfg.QueueCap, syncCost,
		admit.NewDegrade(cfg.Degrade, len(cfg.Models)))
	return st, nil
}

// Resolve feeds a finished or dropped query of node-local service svc back
// into the node: it releases the admitted work (workMS) from the backlog,
// then gives the drift detector the margin-free prediction (predMS) against
// the latency that happened — drops observe too, a drop being divergence at
// its loudest — then, when calibration is on, gives the tracker the same
// completion split into solo work and backlog.
func (st *Stack) Resolve(svc int, predMS, workMS, latencyMS float64) {
	st.Adm.Finish(svc, workMS)
	st.Adm.Degrade().Observe(svc, predMS, latencyMS)
	if st.Tracker != nil {
		st.Tracker.ObserveAdmission(svc, workMS, predMS-workMS, latencyMS)
	}
}

// Node is what the router reads of one node. Services are host-global
// indices; a host whose nodes each serve a subset maps them in Hosts and
// Degraded.
type Node interface {
	Phase() scaler.Phase
	// Hosts reports whether the node serves service svc.
	Hosts(svc int) bool
	// Degraded reports whether the node's drift detector for svc is active.
	Degraded(svc int) bool
	// Load is the node's predicted backlog (ms).
	Load() float64
	// Clock is the node's virtual clock (ms).
	Clock() float64
}

// probePeriod is the quarantine-probe cadence: every Nth routing decision
// per service skips the health filter and lets warming nodes in. A
// quarantined replica keeps receiving a trickle of traffic, so its drift
// EWMA tracks reality and a replica that healed (or tripped on a startup
// transient) decays below the exit ratio and rejoins instead of staying
// frozen out; a warming node's trackers see real traffic before the router
// bets real load on it.
const probePeriod = 16

// Route picks the node for one query of service svc. nodes is every node
// ever built, in id order; probes holds one decision counter per service,
// which counts only once more than one node exists.
//
// Candidates are the Active nodes hosting svc, plus the Warming ones on a
// probe turn; with no Active host, the Warming ones. Off probe turns,
// degraded candidates are skipped unless every candidate is degraded —
// shedding is the admitters' job, routing still balances what is left. The
// pick minimises (load, clock, id): an unpaced gateway's idle nodes tie on
// load, and the clock hands the query to the node that has simulated the
// least; on one shared engine the clocks tie too, leaving index order.
// migrated reports that a degraded candidate was skipped for a healthy one.
// At least one Active or Warming node must host svc.
func Route[N Node](nodes []N, svc int, probes []atomic.Int64) (pick N, migrated bool) {
	probe := len(nodes) > 1 && probes[svc].Add(1)%probePeriod == 0
	phases := phaseBit(scaler.Active)
	if probe {
		phases |= phaseBit(scaler.Warming)
	}
	pick, migrated, ok := scan(nodes, svc, phases, !probe)
	if !ok {
		pick, migrated, _ = scan(nodes, svc, phaseBit(scaler.Warming), !probe)
	}
	return pick, migrated
}

func phaseBit(p scaler.Phase) uint { return 1 << uint(p) }

// scan is one pass over the nodes in the given phases that host svc,
// tracking the best candidate overall and, when filter is set, the best
// healthy one.
func scan[N Node](nodes []N, svc int, phases uint, filter bool) (pick N, migrated, ok bool) {
	var all, healthy choice[N]
	for _, n := range nodes {
		if phases&phaseBit(n.Phase()) == 0 || !n.Hosts(svc) {
			continue
		}
		load, clock := n.Load(), n.Clock()
		all.offer(n, load, clock)
		if !filter {
			continue
		}
		if n.Degraded(svc) {
			migrated = true
		} else {
			healthy.offer(n, load, clock)
		}
	}
	if healthy.ok {
		return healthy.n, migrated, true
	}
	return all.n, false, all.ok
}

// choice is the running minimum of one scan.
type choice[N any] struct {
	n           N
	load, clock float64
	ok          bool
}

func (c *choice[N]) offer(n N, load, clock float64) {
	if !c.ok || load < c.load || (load == c.load && clock < c.clock) {
		*c = choice[N]{n: n, load: load, clock: clock, ok: true}
	}
}
