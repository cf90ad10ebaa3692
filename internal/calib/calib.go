// Package calib closes the loop the offline-trained predictor leaves open:
// the serving stack predicts every admitted query's completion latency, then
// watches what actually happened, and this package folds the difference back
// into future predictions. Clockwork (OSDI '20) argues that production
// predictability comes from continuously reconciling observed against
// predicted latency; here that reconciliation is a per-service affine
// correction fit online from (predicted, observed) feedback pairs.
//
// Mechanics: every completed query contributes one sample to its service —
// the prediction admission used and the latency the query actually saw. The
// Tracker accumulates closed-form least-squares moments over small batches
// and, every updateEvery samples, fits the residual map observed ≈ a·x + b
// and composes it (damped) into the service's running correction. Because
// samples are taken against already-corrected predictions, the fit is a
// feedback step: once the correction converges the residual map is the
// identity and the state stops moving. A bounded, seeded reservoir keeps a
// representative sample window per service for residual quantiles.
//
// Everything is single-goroutine state owned by whichever loop drives the
// runtime (the chaos engine goroutine, the gateway bridge loop), and every
// random choice is a seeded splitmix64 draw, so calibration reports are
// byte-identical across runs and worker-pool widths.
package calib

import (
	"cmp"
	"math"
	"slices"

	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/stats"
)

// Config is what a host chooses about online calibration; everything else
// is a constant below.
type Config struct {
	// Seed drives the per-service reservoir eviction coins.
	Seed int64 `json:"seed,omitempty"`
	// OnUpdate, when non-nil, runs after a service's correction changes —
	// the admitter invalidates its memoized solo predictions here. It runs
	// on the goroutine that called Observe.
	OnUpdate func(service int) `json:"-"`
}

const (
	// reservoirSize bounds the per-service feedback sample window kept for
	// residual quantiles.
	reservoirSize = 256
	// minSamples is how many feedback samples a service must contribute
	// before its correction leaves the identity.
	minSamples = 16
	// updateEvery is the closed-form refit cadence: every this many samples
	// per service, the batch residual map is fit and folded in.
	updateEvery = 8
	// damping is the fraction of the fitted residual map folded into the
	// running correction per update: it rides out noise where 1 would jump
	// straight to the fit.
	damping = 0.5
	// minSlope and maxSlope clamp the total correction slope, bounding how
	// far feedback may bend the model.
	minSlope = 0.2
	maxSlope = 5
	// maxInterceptMS clamps the correction intercept's magnitude in virtual
	// ms.
	maxInterceptMS = 50
	// maxBacklogFrac gates ObserveAdmission: a completion only becomes a
	// feedback sample when the backlog ahead of it at admission was at most
	// this fraction of its own predicted work. Uncontended samples isolate
	// model error from queueing and overlap slack — a contended completion
	// reflects the whole backlog's fate, not the model's accuracy on this
	// query.
	maxBacklogFrac = 0.1
)

// svcState is one service's calibration state.
type svcState struct {
	slope     float64 // running correction: corrected = slope·raw + intercept
	intercept float64

	// Batch least-squares moments since the last closed-form update, over
	// (x = corrected prediction admission used, y = observed latency).
	n                int
	sx, sy, sxx, sxy float64
	samples          int64 // lifetime feedback samples
	updates          int64 // closed-form corrections applied
	res              *reservoir
}

// Tracker is the per-service online calibration state. Like the admission
// controller it is single-goroutine state: the loop that owns the runtime
// owns the tracker.
type Tracker struct {
	cfg     Config
	models  []dnn.ModelID
	byModel map[dnn.ModelID]int
	svcs    []*svcState
}

// NewTracker builds a tracker over the deployment (one correction per
// service, keyed by model). It panics on an empty deployment.
func NewTracker(cfg Config, models []dnn.ModelID) *Tracker {
	if len(models) == 0 {
		panic("calib: no models")
	}
	t := &Tracker{
		cfg:     cfg,
		models:  append([]dnn.ModelID(nil), models...),
		byModel: make(map[dnn.ModelID]int, len(models)),
	}
	for i, m := range models {
		t.byModel[m] = i
		t.svcs = append(t.svcs, &svcState{
			slope: 1,
			res:   newReservoir(reservoirSize, uint64(cfg.Seed), uint64(i)),
		})
	}
	return t
}

// Observe feeds one completed query's feedback pair: the (corrected)
// completion latency admission predicted and the latency the query actually
// saw. Non-positive predictions and negative observations are ignored.
func (t *Tracker) Observe(service int, predictedMS, observedMS float64) {
	if predictedMS <= 0 || observedMS < 0 ||
		math.IsNaN(observedMS) || math.IsInf(observedMS, 0) {
		return
	}
	s := t.svcs[service]
	s.samples++
	s.n++
	s.sx += predictedMS
	s.sy += observedMS
	s.sxx += predictedMS * predictedMS
	s.sxy += predictedMS * observedMS
	s.res.add(predictedMS, observedMS)

	if s.n >= updateEvery && s.samples >= minSamples {
		a, b, ok := batchFit(s)
		s.n, s.sx, s.sy, s.sxx, s.sxy = 0, 0, 0, 0, 0
		if ok && t.compose(service, a, b) {
			s.updates++
			t.noteUpdate(service)
		}
	}
}

// ObserveAdmission is the admission-path feedback entry point: soloMS is
// the (corrected) prediction for the query's own work, backlogMS the
// predicted work already queued ahead of it at admission, and observedMS
// the completion latency it actually saw. Only uncontended completions —
// backlog at most maxBacklogFrac of the query's own work — become samples:
// a query that waited behind a deep backlog tells us about the backlog, not
// about the model's accuracy on this query, and fitting those pairs would
// fold queueing and overlap slack into the correction.
func (t *Tracker) ObserveAdmission(service int, soloMS, backlogMS, observedMS float64) {
	if soloMS <= 0 || backlogMS > maxBacklogFrac*soloMS {
		return
	}
	t.Observe(service, soloMS, observedMS)
}

// batchFit solves the one-feature least squares observed ≈ a·x + b over the
// batch moments. When the batch has no usable spread in x (one input served
// in steady state), it degrades to the pure multiplicative fit a = Σy/Σx,
// b = 0, which is the quantity drift detection also watches.
func batchFit(s *svcState) (a, b float64, ok bool) {
	n := float64(s.n)
	if n < 2 || s.sx <= 0 {
		return 0, 0, false
	}
	det := n*s.sxx - s.sx*s.sx
	if det <= 1e-9*math.Max(1, n*s.sxx) {
		return s.sy / s.sx, 0, true
	}
	a = (n*s.sxy - s.sx*s.sy) / det
	b = (s.sy - a*s.sx) / n
	if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
		// A non-positive or degenerate slope means the batch carries no
		// usable signal; fall back to the ratio fit.
		return s.sy / s.sx, 0, true
	}
	return a, b, true
}

// compose folds the residual map (a, b) — fit against already-corrected
// predictions — into the running correction with damping, then clamps.
// It reports whether the correction actually moved.
func (t *Tracker) compose(service int, a, b float64) bool {
	s := t.svcs[service]
	// Ideal new correction: apply the residual map after the old correction.
	slope := a * s.slope
	intercept := a*s.intercept + b
	// Damped step from the old state toward the ideal.
	slope = s.slope + damping*(slope-s.slope)
	intercept = s.intercept + damping*(intercept-s.intercept)
	slope = math.Min(math.Max(slope, minSlope), maxSlope)
	intercept = math.Min(math.Max(intercept, -maxInterceptMS), maxInterceptMS)
	if slope == s.slope && intercept == s.intercept {
		return false
	}
	s.slope, s.intercept = slope, intercept
	return true
}

func (t *Tracker) noteUpdate(service int) {
	if t.cfg.OnUpdate != nil {
		t.cfg.OnUpdate(service)
	}
}

// Correct applies one service's running correction to a raw prediction.
// Before minSamples of feedback the correction is the identity. The result
// is floored at a small fraction of the input so a negative intercept can
// never drive a prediction to zero or below.
func (t *Tracker) Correct(service int, v float64) float64 {
	s := t.svcs[service]
	if s.samples < minSamples || v <= 0 {
		return v
	}
	out := s.slope*v + s.intercept
	if floor := minSlope * v; out < floor {
		out = floor
	}
	return out
}

// CorrectGroup corrects a group-level prediction. A group spans one or more
// services; their affine maps may disagree, so the corrected value is the
// uniform blend of each present service's correction (exact for the
// single-service groups admission predicts with; a neutral compromise for
// the scheduler's co-run groups). Models outside the deployment contribute
// the identity.
func (t *Tracker) CorrectGroup(g predictor.Group, v float64) float64 {
	if len(g) == 0 || v <= 0 {
		return v
	}
	sum := 0.0
	for _, e := range g {
		if idx, ok := t.byModel[e.Model]; ok {
			sum += t.Correct(idx, v)
		} else {
			sum += v
		}
	}
	return sum / float64(len(g))
}

// ServiceStatus is one service's calibration state for /statz, metrics, and
// chaos reports.
type ServiceStatus struct {
	Service   int     `json:"service"`
	Model     string  `json:"model"`
	Slope     float64 `json:"slope"`
	Intercept float64 `json:"intercept_ms"`
	Samples   int64   `json:"samples"`
	Updates   int64   `json:"updates"`
	Reservoir int     `json:"reservoir"`
	// ResidualP50MS/ResidualP99MS are quantiles of the signed residual
	// (observed − corrected prediction) over the reservoir window; zero when
	// the reservoir is empty.
	ResidualP50MS float64 `json:"residual_p50_ms"`
	ResidualP99MS float64 `json:"residual_p99_ms"`
}

// Status is the tracker's point-in-time snapshot. Enabled is always true:
// a tracker exists only while calibration is on.
type Status struct {
	Enabled  bool            `json:"enabled"`
	Services []ServiceStatus `json:"services"`
}

// Merge folds o into s, keeping per service the best-fed entry: the one
// with the most samples, the entry s already holds on a tie. Services stay
// in ascending order.
func (s *Status) Merge(o Status) {
	s.Enabled = s.Enabled || o.Enabled
	for _, e := range o.Services {
		i, held := slices.BinarySearchFunc(s.Services, e.Service, func(x ServiceStatus, svc int) int {
			return cmp.Compare(x.Service, svc)
		})
		switch {
		case !held:
			s.Services = slices.Insert(s.Services, i, e)
		case e.Samples > s.Services[i].Samples:
			s.Services[i] = e
		}
	}
}

// Snapshot returns the tracker's current state in service order.
func (t *Tracker) Snapshot() Status {
	st := Status{Enabled: true}
	for i, s := range t.svcs {
		e := ServiceStatus{
			Service:   i,
			Model:     t.models[i].String(),
			Slope:     s.slope,
			Intercept: s.intercept,
			Samples:   s.samples,
			Updates:   s.updates,
			Reservoir: s.res.len(),
		}
		if resid := s.res.residuals(); len(resid) > 0 {
			ps := stats.Percentiles(resid, 50, 99)
			e.ResidualP50MS, e.ResidualP99MS = ps[0], ps[1]
		}
		st.Services = append(st.Services, e)
	}
	return st
}
