// Compiling a Spec into a deterministic arrival source. Each service's rate
// envelope r(t) is the sum of its phases; arrivals are drawn by the
// time-rescaling theorem — a unit-mean renewal gap G is consumed by
// advancing t until ∫ r(u) du = G — which makes every process kind exact for
// time-varying rates (Poisson gaps recover the inhomogeneous Poisson
// process; Gamma/Pareto gaps give inhomogeneous renewal processes; the
// on/off modulator multiplies r(t) by a seeded two-state Markov chain, the
// textbook MMPP). The integral is walked over short piecewise-constant bins,
// cut at modulator edges, so the inversion is deterministic and cheap.
//
// Determinism contract: every stream (service, modulator, cohort client)
// owns a PRNG derived from the spec seed by pure mixing (SubSeed), so no
// stream's draws depend on how far any other stream has been consumed. A
// Source and a Materialize built from the same spec and deployment yield
// byte-identical arrivals, which the prefix-law property test pins for every
// phase × process combination.
package workload

import (
	"container/heap"
	"fmt"
	"math"

	"abacus/internal/dnn"
	"abacus/internal/trace"
)

// Seed-derivation salts: one namespace per stream family.
const (
	saltService = 0x5e
	saltMod     = 0x6d
	saltCohort  = 0xc0
)

// rateBinMS is the piecewise-constant integration step for the cumulative
// intensity. 5 ms resolves every phase shape the spec grammar can express
// (the fastest edge is a flash ramp, typically ≥ 100 ms).
const rateBinMS = 5.0

// Compiled is a spec bound to a deployment: service indices validated,
// pinned models and inputs checked against the model zoo, and the effective
// seed resolved. Compiled is immutable; every Source() call builds fresh
// generator state.
type Compiled struct {
	Spec   *Spec
	Models []dnn.ModelID
	Seed   int64
}

// Bind validates the spec against a deployment's service list and resolves
// the seed: the spec's own Seed wins, defaultSeed fills in when the spec
// leaves it 0 (so embedding scenarios can supply theirs).
func (s *Spec) Bind(models []dnn.ModelID, defaultSeed int64) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("workload: binding %s: no deployment models", s.Name)
	}
	check := func(what string, svc int, pinned string, in *InputSpec) error {
		if svc >= len(models) {
			return fmt.Errorf("workload: %s %s targets service %d, deployment has %d", s.Name, what, svc, len(models))
		}
		if pinned != "" && pinned != models[svc].String() {
			return fmt.Errorf("workload: %s %s pins model %q, deployment serves %s at service %d",
				s.Name, what, pinned, models[svc], svc)
		}
		if in != nil {
			if err := dnn.Get(models[svc]).CheckInput(dnn.Input{Batch: in.Batch, SeqLen: in.SeqLen}); err != nil {
				return fmt.Errorf("workload: %s %s input on %s: %w", s.Name, what, models[svc], err)
			}
		}
		return nil
	}
	for i := range s.Services {
		sv := &s.Services[i]
		if err := check(fmt.Sprintf("service %d", i), sv.Service, sv.Model, sv.Input); err != nil {
			return nil, err
		}
	}
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		if err := check(fmt.Sprintf("cohort %d", i), c.Service, c.Model, c.Input); err != nil {
			return nil, err
		}
	}
	seed := s.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	return &Compiled{Spec: s, Models: models, Seed: seed}, nil
}

// inputDraw compiles an input source for one service: a pinned input, or the
// paper's Table 1 draw (batch uniform over the served set, seqlen uniform
// over the model's lengths for sequence models).
func inputDraw(model dnn.ModelID, pin *InputSpec) func(*PRNG) dnn.Input {
	if pin != nil {
		in := dnn.Input{Batch: pin.Batch, SeqLen: pin.SeqLen}
		return func(*PRNG) dnn.Input { return in }
	}
	m := dnn.Get(model)
	batches := dnn.Batches()
	if m.IsSequence() {
		seqs := m.SeqLens
		return func(r *PRNG) dnn.Input {
			return dnn.Input{Batch: batches[r.Intn(len(batches))], SeqLen: seqs[r.Intn(len(seqs))]}
		}
	}
	return func(r *PRNG) dnn.Input { return dnn.Input{Batch: batches[r.Intn(len(batches))]} }
}

// gapDraw compiles a process into a unit-mean renewal gap source. The on/off
// kind draws exponential gaps (MMPP = rate-modulated Poisson); its
// modulation lives in onoffMod.
func gapDraw(p ProcessSpec) func(*PRNG) float64 {
	switch p.Kind {
	case ProcGamma:
		shape := p.Shape
		return func(r *PRNG) float64 { return r.Gamma(shape) / shape }
	case ProcPareto:
		alpha := p.Alpha
		return func(r *PRNG) float64 { return r.Pareto(alpha) }
	default: // poisson, onoff, ""
		return func(r *PRNG) float64 { return r.Exp() }
	}
}

// phaseRate evaluates one phase's rate contribution at absolute time t.
// endMS is the phase's resolved end.
func phaseRate(p *PhaseSpec, endMS, t float64) float64 {
	if t < p.StartMS || t >= endMS {
		return 0
	}
	switch p.Kind {
	case PhaseConstant:
		return p.QPS
	case PhaseRamp:
		frac := (t - p.StartMS) / (endMS - p.StartMS)
		return p.QPS + (p.ToQPS-p.QPS)*frac
	case PhaseSine:
		period := p.PeriodMS
		if period == 0 {
			period = endMS - p.StartMS
		}
		return p.QPS * (1 + p.Amplitude*math.Sin(2*math.Pi*(t-p.StartMS)/period))
	case PhaseStep:
		at := p.AtMS
		if at == 0 {
			at = (p.StartMS + endMS) / 2
		}
		if t < at {
			return p.QPS
		}
		return p.ToQPS
	case PhaseFlash:
		switch {
		case t >= p.PeakStartMS && t < p.PeakEndMS:
			return p.PeakQPS
		case p.RampMS > 0 && t >= p.PeakStartMS-p.RampMS && t < p.PeakStartMS:
			frac := (t - (p.PeakStartMS - p.RampMS)) / p.RampMS
			return p.QPS + (p.PeakQPS-p.QPS)*frac
		case p.RampMS > 0 && t >= p.PeakEndMS && t < p.PeakEndMS+p.RampMS:
			frac := (t - p.PeakEndMS) / p.RampMS
			return p.PeakQPS - (p.PeakQPS-p.QPS)*frac
		default:
			return p.QPS
		}
	}
	return 0
}

// onoffMod is the seeded two-state Markov modulator: the rate is multiplied
// by onFactor while bursting and offFactor while quiet, with exponentially
// distributed state durations. onFactor is normalized so the long-run mean
// multiplier is 1 — the phase envelope still sets the offered mean.
type onoffMod struct {
	rng              *PRNG
	onMS, offMS      float64
	onFactor, offFac float64
	on               bool
	until            float64 // current state's end
}

func newOnOffMod(p ProcessSpec, rng *PRNG) *onoffMod {
	m := &onoffMod{rng: rng, onMS: p.OnMS, offMS: p.OffMS, offFac: p.OffFactor}
	// Mean multiplier (on·onF + off·offF)/(on+off) = 1 ⇒ onF as below.
	m.onFactor = ((p.OnMS + p.OffMS) - p.OffMS*p.OffFactor) / p.OnMS
	m.on = true
	m.until = m.onMS * rng.Exp()
	return m
}

// at returns the multiplier covering time t and the edge where it next
// changes. t must be non-decreasing across calls.
func (m *onoffMod) at(t float64) (factor, until float64) {
	for t >= m.until {
		m.on = !m.on
		if m.on {
			m.until += m.onMS * m.rng.Exp()
		} else {
			m.until += m.offMS * m.rng.Exp()
		}
	}
	if m.on {
		return m.onFactor, m.until
	}
	return m.offFac, m.until
}

// svcGen generates one service's open-loop arrivals.
type svcGen struct {
	svc   int
	durMS float64
	rng   *PRNG
	gap   func(*PRNG) float64
	input func(*PRNG) dnn.Input
	// phases with resolved ends, parallel slices.
	phases []PhaseSpec
	ends   []float64
	mod    *onoffMod
	t      float64
	done   bool
}

func newSvcGen(c *Compiled, sv *ServiceSpec) *svcGen {
	g := &svcGen{
		svc:   sv.Service,
		durMS: c.Spec.DurationMS,
		rng:   NewPRNG(SubSeed(c.Seed, saltService, uint64(sv.Service))),
		gap:   gapDraw(sv.Process),
		input: inputDraw(c.Models[sv.Service], sv.Input),
	}
	g.phases = sv.Phases
	g.ends = make([]float64, len(sv.Phases))
	for i := range sv.Phases {
		g.ends[i] = sv.Phases[i].EndMS
		if g.ends[i] == 0 {
			g.ends[i] = c.Spec.DurationMS
		}
	}
	if sv.Process.Kind == ProcOnOff {
		g.mod = newOnOffMod(sv.Process, NewPRNG(SubSeed(c.Seed, saltMod, uint64(sv.Service))))
	}
	return g
}

// rate is the composite envelope at time t (queries per second).
func (g *svcGen) rate(t float64) float64 {
	var r float64
	for i := range g.phases {
		r += phaseRate(&g.phases[i], g.ends[i], t)
	}
	return r
}

// next advances the renewal clock by one unit-mean gap under time
// rescaling: walk piecewise-constant bins accumulating ∫ r until the gap is
// spent.
func (g *svcGen) next() (trace.Arrival, bool) {
	if g.done {
		return trace.Arrival{}, false
	}
	need := g.gap(g.rng)
	t := g.t
	for {
		if t >= g.durMS {
			g.done = true
			return trace.Arrival{}, false
		}
		binEnd := math.Min(g.durMS, math.Floor(t/rateBinMS)*rateBinMS+rateBinMS)
		factor := 1.0
		if g.mod != nil {
			var edge float64
			factor, edge = g.mod.at(t)
			if edge < binEnd {
				binEnd = edge
			}
		}
		// Events per ms over this bin, evaluated at its midpoint.
		r := g.rate((t+binEnd)/2) / 1000 * factor
		if r <= 0 {
			t = binEnd
			continue
		}
		if dt := need / r; t+dt < binEnd {
			t += dt
			break
		}
		need -= (binEnd - t) * r
		t = binEnd
	}
	g.t = t
	return trace.Arrival{Time: t, Service: g.svc, Input: g.input(g.rng)}, true
}

// genStream is the common face of service and cohort generators.
type genStream interface {
	next() (trace.Arrival, bool)
}

// mergeSource k-way merges the per-stream arrivals into one time-sorted
// Source. Ties break on stream order (services first, then cohorts, both in
// spec order), so the merge is deterministic.
type mergeSource struct {
	gens  []genStream
	heads []trace.Arrival
	live  []bool
}

func newMergeSource(gens []genStream) *mergeSource {
	m := &mergeSource{gens: gens, heads: make([]trace.Arrival, len(gens)), live: make([]bool, len(gens))}
	for i, g := range gens {
		m.heads[i], m.live[i] = g.next()
	}
	return m
}

// Next implements trace.Source.
func (m *mergeSource) Next() (trace.Arrival, bool) {
	best := -1
	for i := range m.gens {
		if !m.live[i] {
			continue
		}
		if best < 0 || m.heads[i].Time < m.heads[best].Time {
			best = i
		}
	}
	if best < 0 {
		return trace.Arrival{}, false
	}
	a := m.heads[best]
	m.heads[best], m.live[best] = m.gens[best].next()
	return a, true
}

// Source returns a fresh lazy arrival stream for the compiled workload.
// Streams from the same Compiled are independent and identical.
func (c *Compiled) Source() trace.Source {
	gens := make([]genStream, 0, len(c.Spec.Services)+len(c.Spec.Cohorts))
	for i := range c.Spec.Services {
		gens = append(gens, newSvcGen(c, &c.Spec.Services[i]))
	}
	for i := range c.Spec.Cohorts {
		gens = append(gens, newCohortGen(c, i, &c.Spec.Cohorts[i]))
	}
	return newMergeSource(gens)
}

// Materialize drains a fresh Source into a slice — by construction the
// prefix law holds: Materialize()[:k] equals the first k arrivals of
// Source() for any k.
func (c *Compiled) Materialize() []trace.Arrival {
	return trace.Collect(c.Source(), 0)
}

// ServiceSummary is one service's offered-load digest, for preflight
// printing and spec validation tooling.
type ServiceSummary struct {
	Service int     `json:"service"`
	Model   string  `json:"model"`
	MeanQPS float64 `json:"mean_qps"`
	PeakQPS float64 `json:"peak_qps"`
}

// Summary digests the offered load per service: the open-loop envelope is
// scanned over rateBinMS bins; cohorts contribute their steady-state rate
// clients/(mean think + service time). On/off burst modulation is
// mean-preserving, so it does not move these numbers.
func (c *Compiled) Summary() []ServiceSummary {
	mean := make([]float64, len(c.Models))
	peak := make([]float64, len(c.Models))
	dur := c.Spec.DurationMS
	for i := range c.Spec.Services {
		g := newSvcGen(c, &c.Spec.Services[i])
		var sum float64
		bins := 0
		for t := 0.0; t < dur; t += rateBinMS {
			end := math.Min(dur, t+rateBinMS)
			r := g.rate((t + end) / 2)
			sum += r * (end - t)
			if r > peak[g.svc] {
				peak[g.svc] = r
			}
			bins++
		}
		mean[g.svc] += sum / dur
	}
	for i := range c.Spec.Cohorts {
		co := &c.Spec.Cohorts[i]
		end := co.EndMS
		if end == 0 {
			end = dur
		}
		rate := float64(co.Clients) * 1000 / (co.Think.MeanMS + co.ServiceMS)
		mean[co.Service] += rate * (end - co.StartMS) / dur
		if rate > peak[co.Service] {
			peak[co.Service] = rate
		}
	}
	var out []ServiceSummary
	for svc := range c.Models {
		if mean[svc] == 0 && peak[svc] == 0 {
			continue
		}
		out = append(out, ServiceSummary{
			Service: svc,
			Model:   c.Models[svc].String(),
			MeanQPS: mean[svc],
			PeakQPS: peak[svc],
		})
	}
	return out
}

// cohortGen generates one closed-loop cohort's arrivals: Clients seeded
// users cycling think → request → (modeled) service time. Client next-fire
// times live in a binary heap keyed (time, client), so the merge order is
// deterministic at any population size; per-client state is one PRNG word.
type cohortGen struct {
	svc       int
	endMS     float64
	serviceMS float64
	think     func(*PRNG) float64
	input     func(*PRNG) dnn.Input
	rngs      []PRNG
	h         cohortHeap
}

type clientAt struct {
	t      float64
	client int32
}

type cohortHeap []clientAt

func (h cohortHeap) Len() int { return len(h) }
func (h cohortHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].client < h[j].client
}
func (h cohortHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cohortHeap) Push(x any)   { *h = append(*h, x.(clientAt)) }
func (h *cohortHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func newCohortGen(c *Compiled, idx int, co *CohortSpec) *cohortGen {
	g := &cohortGen{
		svc:       co.Service,
		endMS:     co.EndMS,
		serviceMS: co.ServiceMS,
		think:     co.Think.Sampler(),
		input:     inputDraw(c.Models[co.Service], co.Input),
		rngs:      make([]PRNG, co.Clients),
	}
	if g.endMS == 0 {
		g.endMS = c.Spec.DurationMS
	}
	g.h = make(cohortHeap, 0, co.Clients)
	for i := 0; i < co.Clients; i++ {
		g.rngs[i] = PRNG{state: SubSeed(c.Seed, saltCohort, uint64(idx), uint64(i))}
		// The first think draw staggers the population across the window so
		// a cohort does not open with Clients simultaneous arrivals.
		t0 := co.StartMS + g.think(&g.rngs[i])
		if t0 < g.endMS {
			g.h = append(g.h, clientAt{t: t0, client: int32(i)})
		}
	}
	heap.Init(&g.h)
	return g
}

func (g *cohortGen) next() (trace.Arrival, bool) {
	if len(g.h) == 0 {
		return trace.Arrival{}, false
	}
	top := g.h[0]
	rng := &g.rngs[top.client]
	a := trace.Arrival{Time: top.t, Service: g.svc, Input: g.input(rng)}
	// The client's loop closes: modeled response, then think, then again.
	nextT := top.t + g.serviceMS + g.think(rng)
	if nextT < g.endMS {
		g.h[0].t = nextT
		heap.Fix(&g.h, 0)
	} else {
		heap.Pop(&g.h)
	}
	return a, true
}
