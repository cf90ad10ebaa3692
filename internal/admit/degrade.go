// Degraded-mode controller: the recovery half of the chaos story. The
// admission predictor assumes a healthy device and a calibrated model; when
// either assumption breaks (thermal throttling, launch stalls, a mistrained
// predictor), admitted queries start finishing later than predicted long
// before they start missing deadlines. The controller watches exactly that
// early signal — an EWMA of the observed/predicted completion-latency ratio
// — and, when divergence is sustained, enters degraded mode: the admission
// margin widens to the observed ratio (plus headroom), so the gateway sheds
// the load the substrate can no longer carry while the queries it still
// admits keep meeting their deadlines. Hysteresis (enter at or above one
// threshold, exit strictly below a lower one) keeps the mode from flapping
// at the boundary.
//
// Divergence is tracked per service: a mistrained predictor usually wrongs
// one model, not the deployment, and a single global EWMA would let one
// drifting service widen the margin for — and shed load from — its healthy
// co-located neighbours. Each service carries its own EWMA, hysteresis
// state, and margin; the aggregate Snapshot remains for dashboards that
// want one number.
package admit

import "fmt"

// DegradeConfig tunes the degraded-mode controller. The zero value enables
// the controller with the defaults below; set Disabled for a PR-2-style
// gateway that never widens its margin.
type DegradeConfig struct {
	// Disabled pins every margin at 1 and ignores observations.
	Disabled bool
	// Alpha is the EWMA smoothing factor in (0, 1] (default 0.3): higher
	// reacts faster, lower rides out single-query noise.
	Alpha float64
	// EnterRatio is the sustained observed/predicted ratio that triggers
	// degraded mode (default 1.3).
	EnterRatio float64
	// ExitRatio is the ratio strictly below which degraded mode ends
	// (default 1.1); it must not exceed EnterRatio. The exit comparison is
	// strict so that a divergence pinned exactly at EnterRatio==ExitRatio
	// cannot oscillate between states on alternating samples.
	ExitRatio float64
	// MinSamples is the number of completions a service must report before
	// its controller may act (default 5).
	MinSamples int
	// MarginHeadroom multiplies the observed divergence when deriving the
	// admission margin (default 1.15), buying slack for divergence still
	// growing.
	MarginHeadroom float64
}

// maxMargin caps the admission margin so a pathological divergence cannot
// shed everything forever.
const maxMargin = 8

func (c DegradeConfig) withDefaults() DegradeConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.3
	}
	if c.EnterRatio == 0 {
		c.EnterRatio = 1.3
	}
	if c.ExitRatio == 0 {
		c.ExitRatio = 1.1
	}
	if c.MinSamples == 0 {
		c.MinSamples = 5
	}
	if c.MarginHeadroom == 0 {
		c.MarginHeadroom = 1.15
	}
	return c
}

func (c DegradeConfig) validate() error {
	switch {
	case c.Alpha <= 0 || c.Alpha > 1:
		return fmt.Errorf("admit: degrade alpha %v outside (0, 1]", c.Alpha)
	case c.EnterRatio <= 1:
		return fmt.Errorf("admit: degrade enter ratio %v must exceed 1", c.EnterRatio)
	case c.ExitRatio <= 0 || c.ExitRatio > c.EnterRatio:
		return fmt.Errorf("admit: degrade exit ratio %v outside (0, enter=%v]", c.ExitRatio, c.EnterRatio)
	case c.MinSamples < 1:
		return fmt.Errorf("admit: degrade min samples %d must be >= 1", c.MinSamples)
	case c.MarginHeadroom < 1:
		return fmt.Errorf("admit: degrade margin headroom %v must be >= 1", c.MarginHeadroom)
	}
	return nil
}

// svcDivergence is one service's divergence-tracking state.
type svcDivergence struct {
	ewma        float64 // observed/predicted completion-latency ratio
	samples     int64
	active      bool
	transitions int64
	shed        int64 // degraded-mode admission rejections (see Decide)
}

// Degrade tracks predicted-vs-observed divergence per service. Like the
// Admitter it is single-goroutine state; snapshot it from the owning loop.
type Degrade struct {
	cfg  DegradeConfig
	svcs []*svcDivergence
}

// NewDegrade builds a controller over numServices services; it panics on an
// invalid configuration or a non-positive service count (both come from
// code or validated flags, so either is a programming error).
func NewDegrade(cfg DegradeConfig, numServices int) *Degrade {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if numServices < 1 {
		panic(fmt.Sprintf("admit: degrade over %d services", numServices))
	}
	d := &Degrade{cfg: cfg, svcs: make([]*svcDivergence, numServices)}
	for i := range d.svcs {
		d.svcs[i] = &svcDivergence{}
	}
	return d
}

// NumServices returns how many services the controller tracks.
func (d *Degrade) NumServices() int { return len(d.svcs) }

// Observe feeds one finished query's predicted and observed completion
// latency (both arrival-relative, margin-free) for its service.
// Non-positive predictions are ignored.
func (d *Degrade) Observe(service int, predictedMS, observedMS float64) {
	if d.cfg.Disabled || predictedMS <= 0 || observedMS < 0 {
		return
	}
	s := d.svcs[service]
	ratio := observedMS / predictedMS
	if s.samples == 0 {
		s.ewma = ratio
	} else {
		s.ewma = d.cfg.Alpha*ratio + (1-d.cfg.Alpha)*s.ewma
	}
	s.samples++
	if s.samples < int64(d.cfg.MinSamples) {
		return
	}
	switch {
	case !s.active && s.ewma >= d.cfg.EnterRatio:
		s.active = true
		s.transitions++
	case s.active && s.ewma < d.cfg.ExitRatio:
		s.active = false
		s.transitions++
	}
}

// Margin returns one service's admission safety margin: 1 while healthy,
// the smoothed divergence ratio times the configured headroom (capped)
// while degraded.
func (d *Degrade) Margin(service int) float64 {
	s := d.svcs[service]
	if !s.active {
		return 1
	}
	m := s.ewma * d.cfg.MarginHeadroom
	if m > maxMargin {
		m = maxMargin
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Active reports whether one service is currently in degraded mode.
func (d *Degrade) Active(service int) bool { return d.svcs[service].active }

// AnyActive reports whether any service is currently in degraded mode.
func (d *Degrade) AnyActive() bool {
	for _, s := range d.svcs {
		if s.active {
			return true
		}
	}
	return false
}

// noteShed records one degraded-mode rejection against a service.
func (d *Degrade) noteShed(service int) { d.svcs[service].shed++ }

// Status is a point-in-time snapshot of divergence state: of one service
// (ServiceSnapshots), or of a fold of several by Merge — a controller's
// services (Snapshot), a service's replicas, a deployment's nodes — for
// /statz, metrics, and chaos reports.
type Status struct {
	Active      bool    `json:"active"`
	Transitions int64   `json:"transitions"`
	Divergence  float64 `json:"divergence_ewma"`
	Margin      float64 `json:"margin"`
	Samples     int64   `json:"samples"`
	Shed        int64   `json:"shed"`
}

// Merge folds o into s: active if either is, counters summed, the worst
// divergence and margin kept. Folding one status into the zero Status
// yields that status.
func (s *Status) Merge(o Status) {
	s.Active = s.Active || o.Active
	s.Transitions += o.Transitions
	s.Samples += o.Samples
	s.Shed += o.Shed
	if o.Divergence > s.Divergence {
		s.Divergence = o.Divergence
	}
	if o.Margin > s.Margin {
		s.Margin = o.Margin
	}
}

// Snapshot returns the fold of every service's state, its margin at least 1.
func (d *Degrade) Snapshot() Status {
	var st Status
	for i := range d.svcs {
		st.Merge(d.status(i))
	}
	if st.Margin < 1 {
		st.Margin = 1
	}
	return st
}

// ServiceSnapshots returns every service's divergence state in service
// order.
func (d *Degrade) ServiceSnapshots() []Status {
	out := make([]Status, len(d.svcs))
	for i := range d.svcs {
		out[i] = d.status(i)
	}
	return out
}

func (d *Degrade) status(i int) Status {
	s := d.svcs[i]
	return Status{
		Active:      s.active,
		Transitions: s.transitions,
		Divergence:  s.ewma,
		Margin:      d.Margin(i),
		Samples:     s.samples,
		Shed:        s.shed,
	}
}
