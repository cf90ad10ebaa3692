// Package admit is the predictor-driven admission controller shared by the
// online HTTP gateway (internal/server) and the chaos scenario harness
// (internal/chaos). At arrival it predicts when a query would complete if
// admitted — the predicted work already admitted and unfinished, plus the
// query's own predicted solo latency — and rejects immediately when that
// misses the deadline (Clockwork-style early rejection). The backlog term
// is the sequential-execution bound; Abacus's deterministic overlap only
// improves on it, so admission errs on the safe side.
//
// On top of the PR-2 admitter this package adds the degraded-mode
// controller: an EWMA over predicted-vs-observed latency divergence that,
// when the substrate stops matching the model (GPU throttling, a mistrained
// predictor), widens the admission safety margin so load is shed *before*
// deadlines start missing instead of after.
package admit

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/sim"
)

// Rejection reasons reported on the wire and in chaos reports.
const (
	ReasonDeadline  = "deadline_unmeetable"
	ReasonQueueFull = "queue_full"
	ReasonDraining  = "draining"
	ReasonDegraded  = "degraded_shed"
)

// Decision is one admission verdict.
type Decision struct {
	OK     bool
	Reason string // rejection reason, empty when OK
	// PredMS is the raw (margin-free) predicted completion latency relative
	// to arrival; the divergence tracker compares completions against it.
	PredMS float64
	// AdjustedMS is PredMS widened by the degraded-mode safety margin; the
	// verdict is rendered against it.
	AdjustedMS float64
	// WorkMS is the query's own predicted solo work, the backlog unit to
	// release via Finish when the query completes or is dropped.
	WorkMS float64
	// RetryMS is a virtual-ms backoff hint on rejection.
	RetryMS float64
	// Degraded reports that the verdict was rendered with a widened margin.
	Degraded bool
}

// Admitter tracks the predicted backlog of admitted work. It is not safe
// for concurrent use: the gateway owns it on the bridge loop goroutine, the
// chaos harness on the simulation goroutine.
type Admitter struct {
	model    predictor.LatencyModel
	profile  gpusim.Profile
	services []*sched.Service
	queueCap int
	syncCost float64
	degrade  *Degrade

	outstanding []int   // admitted-but-unfinished per service
	backlogMS   float64 // Σ predicted solo latencies of outstanding work
	soloCache   map[soloKey]float64
}

// soloKey identifies a memoized solo prediction: one flat map lookup per
// verdict instead of the two-level input→service chain.
type soloKey struct {
	service int
	in      dnn.Input
}

// New builds an admitter over the deployment. queueCap bounds
// admitted-but-unfinished queries per service; degrade may be nil for a
// gateway without the degraded-mode controller.
func New(model predictor.LatencyModel, profile gpusim.Profile, services []*sched.Service, queueCap int, syncCost float64, degrade *Degrade) *Admitter {
	if model == nil {
		panic("admit: nil latency model")
	}
	if queueCap <= 0 {
		panic(fmt.Sprintf("admit: queue cap %d must be positive", queueCap))
	}
	if degrade == nil {
		degrade = NewDegrade(DegradeConfig{Disabled: true}, len(services))
	}
	if degrade.NumServices() != len(services) {
		panic(fmt.Sprintf("admit: degrade tracks %d services, deployment has %d",
			degrade.NumServices(), len(services)))
	}
	return &Admitter{
		model:       model,
		profile:     profile,
		services:    services,
		queueCap:    queueCap,
		syncCost:    syncCost,
		degrade:     degrade,
		outstanding: make([]int, len(services)),
		soloCache:   make(map[soloKey]float64),
	}
}

// Degrade returns the degraded-mode controller (never nil).
func (a *Admitter) Degrade() *Degrade { return a.degrade }

// BacklogMS returns the predicted unfinished work currently admitted.
func (a *Admitter) BacklogMS() float64 { return a.backlogMS }

// Outstanding returns the admitted-but-unfinished count across services:
// the node's in-flight queries.
func (a *Admitter) Outstanding() int {
	n := 0
	for _, c := range a.outstanding {
		n += c
	}
	return n
}

// CopyOutstanding copies per-service outstanding counts into dst.
func (a *Admitter) CopyOutstanding(dst []int) { copy(dst, a.outstanding) }

// SoloPred returns the predicted exclusive latency (transfer + execution +
// group sync) of a full query, memoized: the served input space is small
// (Table 1), so steady state answers from the cache.
func (a *Admitter) SoloPred(service int, in dnn.Input) float64 {
	key := soloKey{service: service, in: in}
	if v, ok := a.soloCache[key]; ok {
		return v
	}
	svc := a.services[service]
	m := dnn.Get(svc.Model)
	g := predictor.Group{{
		Model:   svc.Model,
		OpStart: 0,
		OpEnd:   m.NumOps(),
		Batch:   in.Batch,
		SeqLen:  in.SeqLen,
	}}
	v := dnn.TransferTime(m, in, a.profile) + a.model.Predict(g) + a.syncCost
	a.soloCache[key] = v
	return v
}

// InvalidateCache drops memoized solo predictions. Chaos runs call it when
// a predictor-fault window opens or closes so the admitter's view tracks
// the (now mis-)calibrated model instead of a stale healthy one.
func (a *Admitter) InvalidateCache() {
	for k := range a.soloCache {
		delete(a.soloCache, k)
	}
}

// InvalidateService drops only the memoized solo predictions of one service —
// the per-service generation matching a calibration refit, which cannot
// change any other service's solo latency.
func (a *Admitter) InvalidateService(service int) {
	for k := range a.soloCache {
		if k.service == service {
			delete(a.soloCache, k)
		}
	}
}

// Decide renders the admission verdict for a query of the given service
// arriving now. sloMS <= 0 selects the service-wide QoS target.
func (a *Admitter) Decide(now sim.Time, service int, in dnn.Input, sloMS float64) Decision {
	if sloMS <= 0 {
		sloMS = a.services[service].QoS
	}
	solo := a.SoloPred(service, in)
	predMS := a.backlogMS + solo // arrival-relative predicted completion
	margin := a.degrade.Margin(service)
	adjMS := predMS * margin
	d := Decision{PredMS: predMS, AdjustedMS: adjMS, WorkMS: solo, Degraded: margin > 1}
	if a.outstanding[service] >= a.queueCap {
		d.Reason = ReasonQueueFull
		d.RetryMS = a.backlogMS
		return d
	}
	if adjMS > sloMS {
		if predMS <= sloMS {
			// Only the widened margin rejects it: this is degraded-mode
			// load shedding, not a hopeless deadline.
			d.Reason = ReasonDegraded
			a.degrade.noteShed(service)
		} else {
			d.Reason = ReasonDeadline
		}
		d.RetryMS = adjMS - sloMS
		return d
	}
	d.OK = true
	return d
}

// Admitted records an accepted query's predicted solo work.
func (a *Admitter) Admitted(service int, workMS float64) {
	a.outstanding[service]++
	a.backlogMS += workMS
}

// Finish releases an admitted query's predicted work once it completes or
// is dropped.
func (a *Admitter) Finish(service int, workMS float64) {
	a.outstanding[service]--
	a.backlogMS -= workMS
	if a.backlogMS < 1e-9 {
		a.backlogMS = 0
	}
}
