// Seeded bounded reservoir of feedback pairs (Vitter's Algorithm R with a
// splitmix64 coin): every offered sample has the same cap/n probability of
// residing in the window, and eviction choices depend only on (seed,
// service, offer index), never on goroutine scheduling.
package calib

import "abacus/internal/rng"

type reservoir struct {
	cap    int
	seed   uint64
	salt   uint64
	n      uint64 // samples offered so far
	xs, ys []float64
}

func newReservoir(capacity int, seed, salt uint64) *reservoir {
	return &reservoir{cap: capacity, seed: seed, salt: salt}
}

func (r *reservoir) add(x, y float64) {
	r.n++
	if len(r.xs) < r.cap {
		r.xs = append(r.xs, x)
		r.ys = append(r.ys, y)
		return
	}
	// Keep the n-th sample with probability cap/n, at a uniform slot.
	j := rng.Keyed(r.seed, r.salt, r.n, 0) % r.n
	if j < uint64(r.cap) {
		r.xs[j] = x
		r.ys[j] = y
	}
}

func (r *reservoir) len() int { return len(r.xs) }

// residuals returns the signed observed−predicted residuals of the window.
func (r *reservoir) residuals() []float64 {
	if len(r.xs) == 0 {
		return nil
	}
	out := make([]float64, len(r.xs))
	for i := range r.xs {
		out[i] = r.ys[i] - r.xs[i]
	}
	return out
}
