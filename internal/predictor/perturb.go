// Perturbed wraps a LatencyModel with deterministic, bounded misprediction:
// a multiplicative bias (a systematically optimistic or pessimistic
// predictor) plus seeded uniform relative noise (a noisy one). The chaos
// experiments use it to ask the question the paper doesn't: what happens to
// Abacus when the prediction it schedules and admits by is wrong by a known,
// controllable amount. Bias comes in two granularities: a global factor over
// every prediction, and per-model factors that wrong only the groups a given
// model appears in — the shape of a predictor mistrained for one service.
package predictor

import (
	"fmt"
	"math"
	"math/rand"

	"abacus/internal/dnn"
)

// Perturbed is a LatencyModel decorator. Bias and noise are mutable so fault
// windows can switch misprediction on and off mid-run; like every model in
// the repro it must only be called from the simulation goroutine, which also
// keeps the seeded noise stream deterministic.
type Perturbed struct {
	inner     LatencyModel
	bias      float64 // multiplicative, > 0; 1 = unbiased
	noise     float64 // relative amplitude in [0, 1): v *= 1 + noise*U(-1,1)
	modelBias map[dnn.ModelID]float64
	rng       *rand.Rand
}

// NewPerturbed wraps inner with the given bias and noise amplitude. bias
// must be positive (0.8 = systematic 20% underprediction); noise must be in
// [0, 1) so perturbed predictions stay positive and bounded.
func NewPerturbed(inner LatencyModel, bias, noise float64, seed int64) *Perturbed {
	if inner == nil {
		panic("predictor: Perturbed requires an inner model")
	}
	p := &Perturbed{inner: inner, rng: rand.New(rand.NewSource(seed))}
	p.SetBias(bias)
	p.SetNoise(noise)
	return p
}

// SetBias updates the multiplicative bias; it panics unless bias > 0 and
// finite.
func (p *Perturbed) SetBias(bias float64) {
	if !(bias > 0) || math.IsInf(bias, 0) {
		panic(fmt.Sprintf("predictor: perturbation bias %v must be positive and finite", bias))
	}
	p.bias = bias
}

// SetNoise updates the relative noise amplitude; it panics unless noise is
// in [0, 1).
func (p *Perturbed) SetNoise(noise float64) {
	if noise < 0 || noise >= 1 || math.IsNaN(noise) {
		panic(fmt.Sprintf("predictor: perturbation noise %v must be in [0, 1)", noise))
	}
	p.noise = noise
}

// SetModelBias updates one model's multiplicative bias, applied on top of
// the global bias to every group the model appears in. Setting 1 clears the
// entry; it panics unless bias > 0 and finite.
func (p *Perturbed) SetModelBias(id dnn.ModelID, bias float64) {
	if !(bias > 0) || math.IsInf(bias, 0) {
		panic(fmt.Sprintf("predictor: model %v perturbation bias %v must be positive and finite", id, bias))
	}
	if bias == 1 {
		delete(p.modelBias, id)
		return
	}
	if p.modelBias == nil {
		p.modelBias = make(map[dnn.ModelID]float64)
	}
	p.modelBias[id] = bias
}

// ModelBias returns one model's multiplicative bias (1 when unset).
func (p *Perturbed) ModelBias(id dnn.ModelID) float64 {
	if b, ok := p.modelBias[id]; ok {
		return b
	}
	return 1
}

// Healthy reports whether the wrapper currently passes predictions through
// unmodified.
func (p *Perturbed) Healthy() bool {
	return p.bias == 1 && p.noise == 0 && len(p.modelBias) == 0
}

// groupBias is the per-model bias a group experiences: the uniform blend of
// its entries' model biases (exact for the single-model groups admission
// predicts with; proportional blame for co-run groups).
func (p *Perturbed) groupBias(g Group) float64 {
	if len(p.modelBias) == 0 || len(g) == 0 {
		return 1
	}
	sum := 0.0
	for _, e := range g {
		sum += p.ModelBias(e.Model)
	}
	return sum / float64(len(g))
}

func (p *Perturbed) perturb(g Group, v float64) float64 {
	v *= p.bias * p.groupBias(g)
	if p.noise > 0 {
		v *= 1 + p.noise*(2*p.rng.Float64()-1)
	}
	return v
}

// Predict implements LatencyModel.
func (p *Perturbed) Predict(g Group) float64 { return p.perturb(g, p.inner.Predict(g)) }

// PredictBatch implements LatencyModel.
func (p *Perturbed) PredictBatch(gs []Group) []float64 {
	out := p.inner.PredictBatch(gs)
	for i, v := range out {
		out[i] = p.perturb(gs[i], v)
	}
	return out
}

var _ LatencyModel = (*Perturbed)(nil)
