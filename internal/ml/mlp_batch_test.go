package ml

import (
	"math/rand"
	"testing"
)

// fitSmallMLP trains a paper-topology MLP over a synthetic nonlinear
// surface for the forward-pass equivalence tests.
func fitSmallMLP(t *testing.T, features int) *MLP {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	var ds Dataset
	for i := 0; i < 200; i++ {
		x := make([]float64, features)
		for j := range x {
			x[j] = rng.Float64() * 50
		}
		y := x[0]*2 + x[1]*x[1]*0.01
		for j := 2; j < len(x); j++ {
			y += x[j] * float64(j%3)
		}
		ds.Append(x, y)
	}
	m := &MLP{Epochs: 20, Seed: 5}
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return m
}

// scalarPredict is the pre-GEMM reference path: per-sample forward over
// freshly allocated activation buffers.
func scalarPredict(m *MLP, x []float64) float64 {
	acts := make([][]float64, len(m.layers)+1)
	acts[0] = make([]float64, m.layers[0].in)
	for l := range m.layers {
		acts[l+1] = make([]float64, m.layers[l].out)
	}
	m.scaler.TransformTo(acts[0], x)
	m.refForward(acts[0], acts)
	return m.targets.unscale(acts[len(acts)-1][0])
}

// TestPredictBatchMatchesPredict pins the hard invariant of the GEMM
// forward: the blocked batch path, the B=1 path, and the scalar reference
// forward produce bit-identical outputs at every batch size, including the
// sizes that exercise both the 4-wide blocks and the scalar tail.
func TestPredictBatchMatchesPredict(t *testing.T) {
	const features = 28
	m := fitSmallMLP(t, features)
	rng := rand.New(rand.NewSource(17))
	for _, B := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 64, 65} {
		X := make([][]float64, B)
		for i := range X {
			X[i] = make([]float64, features)
			for j := range X[i] {
				X[i][j] = rng.Float64() * 50
			}
		}
		batch := make([]float64, B)
		m.PredictBatchTo(batch, X)
		for i, x := range X {
			one := m.Predict(x)
			ref := scalarPredict(m, x)
			if batch[i] != one || batch[i] != ref {
				t.Fatalf("B=%d row %d: batch %v, predict %v, scalar %v — paths diverge",
					B, i, batch[i], one, ref)
			}
		}
	}
}

func TestPredictBatchToEdgeCases(t *testing.T) {
	m := fitSmallMLP(t, 6)
	m.PredictBatchTo(nil, nil) // empty batch is a no-op
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("dst length mismatch", func() {
		m.PredictBatchTo(make([]float64, 1), [][]float64{make([]float64, 6), make([]float64, 6)})
	})
	mustPanic("input width mismatch", func() {
		m.PredictBatchTo(make([]float64, 1), [][]float64{make([]float64, 5)})
	})
	mustPanic("unfitted model", func() {
		var un MLP
		un.PredictBatchTo(make([]float64, 1), [][]float64{make([]float64, 3)})
	})
}
