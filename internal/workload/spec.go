// Package workload is the declarative workload-spec engine: it compiles a
// JSON spec into a deterministic arrival source. A spec
// composes per-service rate *phases* over a timeline (constant, ramp,
// sinusoid, step, flash crowd) with a pluggable inter-arrival *process*
// (Poisson, Gamma, Pareto heavy-tail, MMPP-style bursty on/off) and optional
// closed-loop *client cohorts* — N distinct seeded clients with think times,
// modeling populations of users instead of one open-loop source. The same
// spec always produces the same arrivals, byte for byte, and any generated
// or live-captured workload can be persisted to a replayable tracev2 file
// (see tracev2.go). The paper's evaluation only needed a single Poisson
// source plus one synthetic MAF trace; this package is how the reproduction
// reaches the bursty, heavy-tailed, multi-period regimes that production
// traces (Clockwork's MAF study, D-STACK's skewed multiplexing loads)
// actually stress.
package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Phase kinds.
const (
	// PhaseConstant holds QPS flat over the window.
	PhaseConstant = "constant"
	// PhaseRamp interpolates linearly from QPS at the window start to ToQPS
	// at the window end.
	PhaseRamp = "ramp"
	// PhaseSine oscillates around mean QPS with relative Amplitude and
	// PeriodMS (default: the window length — one diurnal cycle).
	PhaseSine = "sine"
	// PhaseStep holds QPS until AtMS (default: the window midpoint), then
	// jumps to ToQPS.
	PhaseStep = "step"
	// PhaseFlash holds baseline QPS, then surges to PeakQPS over
	// [PeakStartMS, PeakEndMS), with optional linear RampMS edges — the
	// flash-crowd shape.
	PhaseFlash = "flash"
)

// Process kinds.
const (
	// ProcPoisson draws exponential inter-arrival gaps (memoryless).
	ProcPoisson = "poisson"
	// ProcGamma draws Gamma gaps with the given Shape; Shape < 1 is burstier
	// than Poisson (CV² = 1/Shape), Shape > 1 smoother.
	ProcGamma = "gamma"
	// ProcPareto draws Pareto gaps with tail index Alpha > 1 — heavy-tailed
	// silences between arrival clumps.
	ProcPareto = "pareto"
	// ProcOnOff modulates a Poisson stream with a two-state Markov chain
	// (mean OnMS bursting, mean OffMS quiet at OffFactor of the rate),
	// renormalized so the long-run mean matches the phase envelope — the
	// MMPP bursty shape.
	ProcOnOff = "onoff"
)

// Think-time distributions for cohorts.
const (
	ThinkExp       = "exp"
	ThinkLogNormal = "lognormal"
	ThinkConstant  = "constant"
	ThinkPareto    = "pareto"
)

// Spec is one declarative workload: what arrives, when, and how bursty.
type Spec struct {
	// Name labels the workload in traces and reports.
	Name string `json:"name"`
	// Seed drives every stream; 0 lets the embedding scenario supply one.
	Seed int64 `json:"seed,omitempty"`
	// DurationMS is the timeline length; phases and cohorts are clipped to it.
	DurationMS float64 `json:"duration_ms"`
	// Services are the open-loop per-service load shapes.
	Services []ServiceSpec `json:"services,omitempty"`
	// Cohorts are closed-loop client populations layered on top.
	Cohorts []CohortSpec `json:"cohorts,omitempty"`
}

// ServiceSpec shapes one service's open-loop arrivals: the rate envelope is
// the sum of its phases, and the process sets gap burstiness around it.
type ServiceSpec struct {
	// Service indexes the deployment's service list.
	Service int `json:"service"`
	// Model optionally pins the service's model name (as printed by
	// dnn.ModelID.String); binding fails if the deployment disagrees, which
	// catches specs replayed against the wrong gateway.
	Model string `json:"model,omitempty"`
	// Process sets the inter-arrival law (default Poisson).
	Process ProcessSpec `json:"process,omitempty"`
	// Phases compose the rate envelope; overlapping phases add.
	Phases []PhaseSpec `json:"phases"`
	// Input optionally pins every arrival's input; default draws per the
	// paper's Table 1 (batch uniform over {4,8,16,32}, seqlen over the
	// model's served lengths).
	Input *InputSpec `json:"input,omitempty"`
}

// PhaseSpec is one segment of a service's rate envelope.
type PhaseSpec struct {
	Kind string `json:"kind"`
	// StartMS/EndMS bound the phase; EndMS 0 means the spec duration.
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms,omitempty"`
	// QPS is the base rate (constant level, ramp start, sine mean, step
	// level, flash baseline).
	QPS float64 `json:"qps"`
	// ToQPS is the ramp end or post-step rate.
	ToQPS float64 `json:"to_qps,omitempty"`
	// AtMS is the step instant (absolute ms; default window midpoint).
	AtMS float64 `json:"at_ms,omitempty"`
	// Amplitude is the sine's relative swing in [0, 1].
	Amplitude float64 `json:"amplitude,omitempty"`
	// PeriodMS is the sine period (default: window length).
	PeriodMS float64 `json:"period_ms,omitempty"`
	// PeakQPS is the flash-crowd surge rate.
	PeakQPS float64 `json:"peak_qps,omitempty"`
	// PeakStartMS/PeakEndMS bound the surge (absolute ms).
	PeakStartMS float64 `json:"peak_start_ms,omitempty"`
	PeakEndMS   float64 `json:"peak_end_ms,omitempty"`
	// RampMS is the flash edge width: the rate climbs over the RampMS before
	// PeakStartMS and falls over the RampMS after PeakEndMS.
	RampMS float64 `json:"ramp_ms,omitempty"`
}

// ProcessSpec selects the inter-arrival law.
type ProcessSpec struct {
	Kind string `json:"kind,omitempty"`
	// Shape is the gamma shape (CV² = 1/Shape); required for ProcGamma.
	Shape float64 `json:"shape,omitempty"`
	// Alpha is the Pareto tail index (> 1); required for ProcPareto.
	Alpha float64 `json:"alpha,omitempty"`
	// OnMS/OffMS are the mean burst and quiet durations for ProcOnOff.
	OnMS  float64 `json:"on_ms,omitempty"`
	OffMS float64 `json:"off_ms,omitempty"`
	// OffFactor is the quiet-state rate multiplier in [0, 1) (default 0:
	// fully silent between bursts).
	OffFactor float64 `json:"off_factor,omitempty"`
}

// InputSpec pins a query input.
type InputSpec struct {
	Batch  int `json:"batch"`
	SeqLen int `json:"seqlen,omitempty"`
}

// CohortSpec is one closed-loop client population: Clients seeded users
// cycling think → request → think against one service. The offline engine
// models the response time as ServiceMS; the live load generator closes the
// loop against real completions (internal/server closed-loop mode).
type CohortSpec struct {
	// Service indexes the deployment's service list.
	Service int `json:"service"`
	// Model optionally pins the model name, like ServiceSpec.Model.
	Model string `json:"model,omitempty"`
	// Clients is the population size (each client gets its own derived
	// 8-byte PRNG, so millions are affordable).
	Clients int `json:"clients"`
	// Think shapes the per-client think time between requests.
	Think ThinkSpec `json:"think"`
	// ServiceMS is the assumed response latency closing each client's loop
	// in the offline model (default 0).
	ServiceMS float64 `json:"service_ms,omitempty"`
	// StartMS/EndMS bound the cohort's activity; EndMS 0 means spec duration.
	StartMS float64 `json:"start_ms,omitempty"`
	EndMS   float64 `json:"end_ms,omitempty"`
	// Input optionally pins every request's input.
	Input *InputSpec `json:"input,omitempty"`
}

// ThinkSpec shapes a think-time distribution. The zero Kind means
// exponential.
type ThinkSpec struct {
	Kind string `json:"kind,omitempty"`
	// MeanMS is the arithmetic mean think time.
	MeanMS float64 `json:"mean_ms"`
	// Sigma is the lognormal log-space spread (default 1).
	Sigma float64 `json:"sigma,omitempty"`
	// Alpha is the Pareto tail index (> 1).
	Alpha float64 `json:"alpha,omitempty"`
}

// maxCohortClients bounds a single cohort's population; beyond it the heap
// merge state (16 bytes a client) stops being a rounding error.
const maxCohortClients = 2_000_000

// Parse decodes a JSON spec strictly — an unknown field or any data after
// the object is an error — and validates it.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: parsing spec (specs are JSON): %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("workload: data after the JSON spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's internal consistency (everything that does not
// need the deployment; Bind adds the model checks).
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec needs a name")
	}
	if !(s.DurationMS > 0) {
		return fmt.Errorf("workload: spec %s: duration_ms %v must be positive", s.Name, s.DurationMS)
	}
	if len(s.Services) == 0 && len(s.Cohorts) == 0 {
		return fmt.Errorf("workload: spec %s has neither services nor cohorts", s.Name)
	}
	for i := range s.Services {
		if err := s.Services[i].validate(s.DurationMS); err != nil {
			return fmt.Errorf("workload: spec %s service %d: %w", s.Name, i, err)
		}
	}
	for i := range s.Cohorts {
		if err := s.Cohorts[i].validate(s.DurationMS); err != nil {
			return fmt.Errorf("workload: spec %s cohort %d: %w", s.Name, i, err)
		}
	}
	return nil
}

func (sv *ServiceSpec) validate(durMS float64) error {
	if sv.Service < 0 {
		return fmt.Errorf("negative service index %d", sv.Service)
	}
	if len(sv.Phases) == 0 {
		return fmt.Errorf("no phases")
	}
	if err := sv.Process.validate(); err != nil {
		return err
	}
	for i := range sv.Phases {
		if err := sv.Phases[i].validate(durMS); err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
	}
	return nil
}

func (p *PhaseSpec) validate(durMS float64) error {
	end := p.EndMS
	if end == 0 {
		end = durMS
	}
	if !(p.StartMS >= 0) || !(end > p.StartMS) {
		return fmt.Errorf("%s window [%v, %v) is not a forward interval", p.Kind, p.StartMS, end)
	}
	if p.QPS < 0 {
		return fmt.Errorf("%s qps %v negative", p.Kind, p.QPS)
	}
	switch p.Kind {
	case PhaseConstant:
		if p.QPS == 0 {
			return fmt.Errorf("constant phase with zero qps does nothing")
		}
	case PhaseRamp:
		if p.ToQPS < 0 {
			return fmt.Errorf("ramp to_qps %v negative", p.ToQPS)
		}
		if p.QPS == 0 && p.ToQPS == 0 {
			return fmt.Errorf("ramp from 0 to 0 does nothing")
		}
	case PhaseSine:
		if p.QPS == 0 {
			return fmt.Errorf("sine phase with zero mean qps")
		}
		if p.Amplitude < 0 || p.Amplitude > 1 {
			return fmt.Errorf("sine amplitude %v outside [0, 1]", p.Amplitude)
		}
		if p.PeriodMS < 0 {
			return fmt.Errorf("sine period_ms %v negative", p.PeriodMS)
		}
	case PhaseStep:
		if p.ToQPS < 0 {
			return fmt.Errorf("step to_qps %v negative", p.ToQPS)
		}
		if p.AtMS != 0 && (p.AtMS <= p.StartMS || p.AtMS >= end) {
			return fmt.Errorf("step at_ms %v outside (%v, %v)", p.AtMS, p.StartMS, end)
		}
	case PhaseFlash:
		if !(p.PeakQPS > 0) {
			return fmt.Errorf("flash peak_qps %v must be positive", p.PeakQPS)
		}
		if p.PeakQPS < p.QPS {
			return fmt.Errorf("flash peak_qps %v below baseline %v", p.PeakQPS, p.QPS)
		}
		if !(p.PeakStartMS >= p.StartMS) || !(p.PeakEndMS > p.PeakStartMS) || !(p.PeakEndMS <= end) {
			return fmt.Errorf("flash peak [%v, %v) outside phase [%v, %v)",
				p.PeakStartMS, p.PeakEndMS, p.StartMS, end)
		}
		if p.RampMS < 0 {
			return fmt.Errorf("flash ramp_ms %v negative", p.RampMS)
		}
	default:
		return fmt.Errorf("unknown phase kind %q", p.Kind)
	}
	return nil
}

func (pr *ProcessSpec) validate() error {
	switch pr.Kind {
	case "", ProcPoisson:
	case ProcGamma:
		if !(pr.Shape > 0) {
			return fmt.Errorf("gamma process needs shape > 0, got %v", pr.Shape)
		}
	case ProcPareto:
		if !(pr.Alpha > 1) {
			return fmt.Errorf("pareto process needs alpha > 1 (finite mean), got %v", pr.Alpha)
		}
	case ProcOnOff:
		if !(pr.OnMS > 0) || !(pr.OffMS > 0) {
			return fmt.Errorf("onoff process needs positive on_ms and off_ms, got %v/%v", pr.OnMS, pr.OffMS)
		}
		if pr.OffFactor < 0 || pr.OffFactor >= 1 {
			return fmt.Errorf("onoff off_factor %v outside [0, 1)", pr.OffFactor)
		}
	default:
		return fmt.Errorf("unknown process kind %q", pr.Kind)
	}
	return nil
}

func (c *CohortSpec) validate(durMS float64) error {
	if c.Service < 0 {
		return fmt.Errorf("negative service index %d", c.Service)
	}
	if c.Clients <= 0 {
		return fmt.Errorf("cohort needs clients > 0, got %d", c.Clients)
	}
	if c.Clients > maxCohortClients {
		return fmt.Errorf("cohort of %d clients exceeds the supported %d", c.Clients, maxCohortClients)
	}
	if c.ServiceMS < 0 {
		return fmt.Errorf("service_ms %v negative", c.ServiceMS)
	}
	end := c.EndMS
	if end == 0 {
		end = durMS
	}
	if !(c.StartMS >= 0) || !(end > c.StartMS) {
		return fmt.Errorf("cohort window [%v, %v) is not a forward interval", c.StartMS, end)
	}
	return c.Think.validate()
}

// Validate checks the think spec standalone — clients building one outside a
// cohort (e.g. the loadgen CLI's closed-loop flags) use it directly.
func (t *ThinkSpec) Validate() error { return t.validate() }

func (t *ThinkSpec) validate() error {
	if !(t.MeanMS > 0) {
		return fmt.Errorf("think mean_ms %v must be positive", t.MeanMS)
	}
	switch t.Kind {
	case "", ThinkExp, ThinkConstant:
	case ThinkLogNormal:
		if t.Sigma < 0 {
			return fmt.Errorf("think sigma %v negative", t.Sigma)
		}
	case ThinkPareto:
		if !(t.Alpha > 1) {
			return fmt.Errorf("think pareto alpha must exceed 1, got %v", t.Alpha)
		}
	default:
		return fmt.Errorf("unknown think kind %q", t.Kind)
	}
	return nil
}

// Sampler compiles the think spec into a draw function over a client's PRNG.
// The spec must have passed validation.
func (t ThinkSpec) Sampler() func(*PRNG) float64 {
	mean := t.MeanMS
	switch t.Kind {
	case ThinkConstant:
		return func(*PRNG) float64 { return mean }
	case ThinkLogNormal:
		sigma := t.Sigma
		if sigma == 0 {
			sigma = 1
		}
		return func(r *PRNG) float64 { return r.LogNormal(mean, sigma) }
	case ThinkPareto:
		alpha := t.Alpha
		return func(r *PRNG) float64 { return mean * r.Pareto(alpha) }
	default: // "" or ThinkExp
		return func(r *PRNG) float64 { return mean * r.Exp() }
	}
}
