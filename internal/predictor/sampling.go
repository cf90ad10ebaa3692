package predictor

import (
	"fmt"
	"math/rand"
	"slices"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/runner"
	"abacus/internal/stats"
)

// Sample is one training example: an operator group and its measured
// latency (mean over Runs repetitions with measurement noise).
type Sample struct {
	Group   Group
	Latency float64
	// StdDev is the run-to-run standard deviation over the repetitions —
	// the quantity Figure 7 reports to establish determinism.
	StdDev float64
}

// SamplerConfig controls training-set generation.
type SamplerConfig struct {
	Profile gpusim.Profile
	// Runs is how many times each group is measured (paper: 100). The mean
	// is the training target.
	Runs int
	// NoiseSigma is the per-kernel lognormal jitter applied during
	// measurement (0.008 reproduces the paper's sub-millisecond stddevs).
	NoiseSigma float64
	// Seed makes sampling and measurement deterministic.
	Seed int64
}

// DefaultSamplerConfig mirrors the paper's offline profiling setup with a
// reduced repetition count (the mean converges long before 100 runs on the
// simulator).
func DefaultSamplerConfig() SamplerConfig {
	return SamplerConfig{
		Profile:    gpusim.A100Profile(),
		Runs:       5,
		NoiseSigma: 0.008,
		Seed:       1,
	}
}

// Sampler generates operator-group samples by the paper's instance-based
// sampling (§5.4, Figure 9): every sampled group is one that can actually
// occur during Abacus scheduling — at least one query completes in the
// group, newly arrived queries start from operator zero, and the remaining
// boundaries are randomized.
type Sampler struct {
	cfg SamplerConfig
	rng *rand.Rand
}

// NewSampler returns a sampler with the given configuration.
func NewSampler(cfg SamplerConfig) *Sampler {
	if cfg.Runs <= 0 {
		cfg.Runs = 1
	}
	return &Sampler{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// SampleGroup draws one operator group over the given co-located models.
func (s *Sampler) SampleGroup(models []dnn.ModelID) Group {
	if len(models) == 0 || len(models) > MaxCoLocated {
		panic(fmt.Sprintf("predictor: sampling over %d models, want 1..%d", len(models), MaxCoLocated))
	}
	for {
		g := make(Group, 0, len(models))
		anyCompletes := false
		for _, id := range models {
			m := dnn.Get(id)
			completes := s.rng.Intn(2) == 0
			isNew := s.rng.Intn(2) == 0
			if !completes && !isNew {
				// A member must either finish in this group or have just
				// arrived; re-flip toward one of the legal states.
				if s.rng.Intn(2) == 0 {
					completes = true
				} else {
					isNew = true
				}
			}
			if completes {
				anyCompletes = true
			}
			n := m.NumOps()
			start, end := 0, n
			if !isNew {
				start = s.rng.Intn(n) // completes from a random position
			}
			if !completes {
				end = start + 1 + s.rng.Intn(n-start) // new, stops early
			}
			e := Entry{Model: id, OpStart: start, OpEnd: end, Batch: s.randomBatch(m)}
			if m.IsSequence() {
				e.SeqLen = m.SeqLens[s.rng.Intn(len(m.SeqLens))]
			}
			g = append(g, e)
		}
		if anyCompletes {
			return g
		}
	}
}

func (s *Sampler) randomBatch(m *dnn.Model) int {
	batches := dnn.Batches()
	return batches[s.rng.Intn(len(batches))]
}

// Collect generates and measures perCombo samples for every k-combination
// of the given models — the paper's 2000 × C(7,2) pairwise profiling run
// (§5.4). The same number of groups is sampled for each combination.
//
// Every group is drawn from the sampler's RNG first, in combination order;
// the groups are then measured concurrently on one spec table. Sample i's
// Runs repetitions use noise seeds cfg.Seed + i·Runs + 1 … + Runs, so the
// samples are the same at any runner width.
func Collect(models []dnn.ModelID, k, perCombo int, cfg SamplerConfig) []Sample {
	s := NewSampler(cfg)
	var groups []Group
	for _, combo := range Combinations(models, k) {
		for i := 0; i < perCombo; i++ {
			groups = append(groups, s.SampleGroup(combo))
		}
	}
	specs := dnn.NewSpecs(s.cfg.Profile)
	return runner.Map(len(groups), 0, func(i int) Sample {
		lat := make([]float64, s.cfg.Runs)
		for r := range lat {
			seed := cfg.Seed + int64(i*s.cfg.Runs+r+1)
			lat[r] = MeasureOn(groups[i], noisyDevice(s.cfg.Profile, s.cfg.NoiseSigma, seed), specs)
		}
		return Sample{Group: groups[i], Latency: stats.Mean(lat), StdDev: stats.StdDev(lat)}
	})
}

// CollectDegrees runs Collect at every co-location degree 1..maxK, the
// degrees concurrently, and concatenates their samples in degree order. Each
// degree draws from its own sampler, so the samples are those of collecting
// the degrees one after another.
func CollectDegrees(models []dnn.ModelID, maxK, perCombo int, cfg SamplerConfig) []Sample {
	return slices.Concat(runner.Map(maxK, 0, func(i int) []Sample {
		return Collect(models, i+1, perCombo, cfg)
	})...)
}

// Combinations returns all k-element combinations of models in
// lexicographic order.
func Combinations(models []dnn.ModelID, k int) [][]dnn.ModelID {
	if k <= 0 || k > len(models) {
		panic(fmt.Sprintf("predictor: combinations k=%d over %d models", k, len(models)))
	}
	var out [][]dnn.ModelID
	combo := make([]dnn.ModelID, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			out = append(out, append([]dnn.ModelID(nil), combo...))
			return
		}
		for i := start; i <= len(models)-(k-depth); i++ {
			combo[depth] = models[i]
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return out
}
