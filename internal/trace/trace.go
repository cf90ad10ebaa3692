// Package trace generates the workloads of the paper's evaluation: Poisson
// query arrivals with randomized inputs (the MLPerf-style load generator of
// §7.1) and a synthetic Microsoft-Azure-Functions-like trace with diurnal
// drift and bursts for the cluster experiment (§7.6).
package trace

import (
	"math"
	"math/rand"

	"abacus/internal/dnn"
)

// Arrival is one generated query arrival.
type Arrival struct {
	Time    float64 // ms since trace start
	Service int     // index into the deployment's service list
	Input   dnn.Input
}

// Times returns the arrivals' timestamps, index for index: the schedule a
// virtual-time host hands to sim.Engine.ScheduleBatch.
func Times(arrivals []Arrival) []float64 {
	times := make([]float64, len(arrivals))
	for i, a := range arrivals {
		times[i] = a.Time
	}
	return times
}

// Generator draws arrivals for a set of co-located services.
type Generator struct {
	rng    *rand.Rand
	models []dnn.ModelID
}

// NewGenerator returns a deterministic generator for the given services.
func NewGenerator(models []dnn.ModelID, seed int64) *Generator {
	if len(models) == 0 {
		panic("trace: no services")
	}
	return &Generator{rng: rand.New(rand.NewSource(seed)), models: models}
}

// randomInput draws a query input per Table 1: batch uniform over
// {4,8,16,32}; sequence length uniform over {8,16,32,64} for sequence
// models.
func (g *Generator) randomInput(service int) dnn.Input {
	return randomInput(g.rng, g.models, service)
}

func randomInput(rng *rand.Rand, models []dnn.ModelID, service int) dnn.Input {
	m := dnn.Get(models[service])
	batches := dnn.Batches()
	in := dnn.Input{Batch: batches[rng.Intn(len(batches))]}
	if m.IsSequence() {
		in.SeqLen = m.SeqLens[rng.Intn(len(m.SeqLens))]
	}
	return in
}

// FixedInput returns arrivals that all use the given input (used by the
// small-DNN experiment, which pins the minimum input).
func (g *Generator) FixedInput(totalQPS float64, durationMS float64, in func(service int) dnn.Input) []Arrival {
	return g.poisson(totalQPS, durationMS, in)
}

// Poisson generates arrivals over [0, durationMS) at totalQPS queries per
// second aggregated across all services; each arrival picks a uniformly
// random service and a random input. Returned arrivals are time-sorted.
func (g *Generator) Poisson(totalQPS float64, durationMS float64) []Arrival {
	return g.poisson(totalQPS, durationMS, g.randomInput)
}

func (g *Generator) poisson(totalQPS, durationMS float64, input func(int) dnn.Input) []Arrival {
	if totalQPS <= 0 || durationMS <= 0 {
		panic("trace: non-positive rate or duration")
	}
	ratePerMS := totalQPS / 1000
	var out []Arrival
	t := g.exp(ratePerMS)
	for t < durationMS {
		svc := g.rng.Intn(len(g.models))
		out = append(out, Arrival{Time: t, Service: svc, Input: input(svc)})
		t += g.exp(ratePerMS)
	}
	return out
}

// exp draws an exponential inter-arrival gap for the given rate (events per
// ms).
func (g *Generator) exp(ratePerMS float64) float64 {
	return g.rng.ExpFloat64() / ratePerMS
}

// Stream returns a lazy Poisson arrival source at totalQPS aggregated over
// all services: each call yields the next arrival, with times growing
// without bound. The draw order matches Poisson, so for any duration the
// first arrivals of a Stream with the same seed are identical to the
// Poisson slice — the online load generator uses this to replay exactly the
// workload the offline simulator predicts.
func (g *Generator) Stream(totalQPS float64) func() Arrival {
	if totalQPS <= 0 {
		panic("trace: non-positive rate")
	}
	ratePerMS := totalQPS / 1000
	t := 0.0
	return func() Arrival {
		t += g.exp(ratePerMS)
		svc := g.rng.Intn(len(g.models))
		return Arrival{Time: t, Service: svc, Input: g.randomInput(svc)}
	}
}

// MAFConfig shapes the synthetic Azure-Functions-like trace.
type MAFConfig struct {
	// BaseQPS is the mean offered load.
	BaseQPS float64
	// DurationMS is the trace length (the paper replays 2 hours).
	DurationMS float64
	// DiurnalAmplitude is the relative swing of the slow sinusoid (0..1).
	DiurnalAmplitude float64
	// BurstProb is the per-minute probability of a load burst.
	BurstProb float64
	// BurstFactor multiplies the rate during a burst minute.
	BurstFactor float64
	// Seed drives all randomness.
	Seed int64
}

// DefaultMAFConfig returns the shape used by the Figure 22 reproduction.
func DefaultMAFConfig(baseQPS, durationMS float64, seed int64) MAFConfig {
	return MAFConfig{
		BaseQPS:          baseQPS,
		DurationMS:       durationMS,
		DiurnalAmplitude: 0.25,
		BurstProb:        0.08,
		BurstFactor:      1.6,
		Seed:             seed,
	}
}

// MAF synthesizes a Microsoft-Azure-Functions-like arrival trace: per-minute
// rates follow a diurnal sinusoid with random bursts; arrivals within a
// minute are Poisson. The real MAF trace is proprietary production data; see
// DESIGN.md for the substitution rationale.
//
// Randomness layout: each minute's arrivals come from an
// RNG derived purely from (Seed, minute), and the burst coin for minute m is
// derived from (Seed, burst salt, m) — three independent stream families. So
// toggling BurstProb leaves every non-burst minute byte-identical, and the
// generator's own RNG state is untouched (MAF output is a pure function of
// cfg, whatever was drawn before).
func (g *Generator) MAF(cfg MAFConfig) []Arrival {
	if cfg.BaseQPS <= 0 || cfg.DurationMS <= 0 {
		panic("trace: non-positive MAF rate or duration")
	}
	const minuteMS = 60_000
	var out []Arrival
	minute := 0
	for start := 0.0; start < cfg.DurationMS; start += minuteMS {
		end := start + minuteMS
		if end > cfg.DurationMS {
			end = cfg.DurationMS
		}
		phase := 2 * math.Pi * start / cfg.DurationMS
		rate := cfg.BaseQPS * (1 + cfg.DiurnalAmplitude*math.Sin(phase))
		mrng := rand.New(rand.NewSource(int64(subStream(cfg.Seed, saltMAFMinute, uint64(minute)))))
		if coinAt(cfg.Seed, minute) < cfg.BurstProb {
			rate *= cfg.BurstFactor
		}
		ratePerMS := rate / 1000
		t := start + mrng.ExpFloat64()/ratePerMS
		for t < end {
			svc := mrng.Intn(len(g.models))
			out = append(out, Arrival{Time: t, Service: svc, Input: randomInput(mrng, g.models, svc)})
			t += mrng.ExpFloat64() / ratePerMS
		}
		minute++
	}
	return out
}

// Stream-family salts for the MAF derivation.
const (
	saltMAFMinute = 0x4d
	saltMAFBurst  = 0xb5
)

// coinAt is minute m's burst coin: a uniform in [0, 1) from the dedicated
// burst stream.
func coinAt(seed int64, minute int) float64 {
	return float64(subStream(seed, saltMAFBurst, uint64(minute))>>11) / (1 << 53)
}

// subStream derives an independent stream seed from a root seed and a salt
// path by splitmix64 finalizer mixing (same construction as
// workload.SubSeed; duplicated here because workload imports trace).
func subStream(seed int64, salts ...uint64) uint64 {
	x := mix64(uint64(seed) ^ 0xabcd_ef01_2345_6789)
	for _, s := range salts {
		x = mix64(x ^ (s+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9)
	}
	return x
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
