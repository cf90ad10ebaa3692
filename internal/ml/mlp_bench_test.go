package ml

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchMLP fits a paper-topology MLP (3×32 hidden) over a synthetic
// feature space shaped like the predictor codec's vectors (bitmap + slot
// fields), so the benchmark exercises the exact layer dimensions the
// duration model runs with.
func benchMLP(b *testing.B, features int) *MLP {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	var ds Dataset
	for i := 0; i < 256; i++ {
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.Float64() * 100
		}
		y := 0.0
		for j, v := range x {
			y += v * float64(j%5)
		}
		ds.Append(x, y+rng.NormFloat64())
	}
	m := &MLP{Epochs: 30, Seed: 1}
	if err := m.Fit(ds); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkMLPPredictBatch measures the batched forward pass at the batch
// sizes the multi-way search issues: B=1 (the admission solo prediction),
// B=8 (a deep probe round), and B=64 (a full sweep round).
func BenchmarkMLPPredictBatch(b *testing.B) {
	const features = 28 // codec width for a 12-model zoo: 12 + 4·4
	m := benchMLP(b, features)
	rng := rand.New(rand.NewSource(9))
	for _, batch := range []int{1, 8, 64} {
		X := make([][]float64, batch)
		for i := range X {
			X[i] = make([]float64, features)
			for j := range X[i] {
				X[i][j] = rng.Float64() * 100
			}
		}
		dst := make([]float64, batch)
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.PredictBatchTo(dst, X)
			}
		})
	}
}

// BenchmarkMLPFit measures training on the benchmark's duration-model shape:
// 1,200 samples of the two-model codec's 23 features through the 3×32
// network, 20 epochs.
func BenchmarkMLPFit(b *testing.B) {
	ds := synthFit(1200, 23, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &MLP{Epochs: 20, LearningRate: 3e-3, Seed: 1}
		if err := m.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}
