// Deterministic randomness for the workload engine. Every arrival stream —
// per-service renewal processes, on/off modulators, cohort clients — owns an
// independent PRNG derived from the spec seed by splitmix64 mixing, so
// changing one knob (or one client) never perturbs another stream's draws.
// The state is a single uint64, which is what makes million-client cohorts
// affordable: math/rand's default source carries ~5 KB per instance, PRNG
// carries 8 bytes.
package workload

import (
	"math"

	"abacus/internal/rng"
)

// PRNG is a splitmix64 sequence generator: tiny state, full 64-bit output,
// and statistically solid for workload synthesis. The zero value is a valid
// generator (stream of seed 0); prefer NewPRNG.
type PRNG struct {
	state uint64
}

// NewPRNG returns a generator for the given seed.
func NewPRNG(seed uint64) *PRNG { return &PRNG{state: seed} }

// next advances the splitmix64 sequence.
func (r *PRNG) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return rng.Mix64(r.state)
}

// Float64 returns a uniform draw in [0, 1).
func (r *PRNG) Float64() float64 { return float64(r.next()>>11) / (1 << 53) }

// Intn returns a uniform draw in [0, n).
func (r *PRNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.next() % uint64(n))
}

// Exp returns an exponential draw with mean 1.
func (r *PRNG) Exp() float64 {
	// 1-Float64 keeps the argument in (0, 1] so the log is finite.
	return -math.Log(1 - r.Float64())
}

// Norm returns a standard normal draw (Box–Muller, cosine branch only, so
// each call consumes exactly two uniforms and the stream is stateless).
func (r *PRNG) Norm() float64 {
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Gamma returns a draw from Gamma(shape, scale=1) via Marsaglia–Tsang
// squeeze, boosted for shape < 1.
func (r *PRNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("workload: non-positive gamma shape")
	}
	if shape < 1 {
		// Gamma(k) = Gamma(k+1) · U^(1/k).
		u := 1 - r.Float64()
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Pareto returns a draw from a Pareto distribution with tail index alpha > 1
// scaled to mean 1 (xm = (alpha-1)/alpha) — the heavy-tailed gap source.
func (r *PRNG) Pareto(alpha float64) float64 {
	if alpha <= 1 {
		panic("workload: pareto alpha must exceed 1 for a finite mean")
	}
	xm := (alpha - 1) / alpha
	u := 1 - r.Float64()
	return xm / math.Pow(u, 1/alpha)
}

// LogNormal returns a draw with the given mean and log-space sigma
// (mu = ln(mean) − sigma²/2, so the arithmetic mean is exact).
func (r *PRNG) LogNormal(mean, sigma float64) float64 {
	if mean <= 0 {
		panic("workload: non-positive lognormal mean")
	}
	mu := math.Log(mean) - sigma*sigma/2
	return math.Exp(mu + sigma*r.Norm())
}

// SubSeed is rng.SubSeed. The benchmark module imports it by this name.
func SubSeed(seed int64, salts ...uint64) uint64 { return rng.SubSeed(seed, salts...) }
