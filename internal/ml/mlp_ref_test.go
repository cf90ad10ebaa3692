package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// refFit is the per-sample trainer that Fit's blocked passes replaced, kept
// verbatim as the bit-identity reference: one forward and one backward per
// sample, gradients accumulated in batch order, then one Adam step.
func (m *MLP) refFit(ds Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	if ds.Len() == 0 {
		return errors.New("ml: empty dataset")
	}
	hidden := []int{hiddenWidth, hiddenWidth, hiddenWidth}
	epochs, lr := m.defaults()

	m.scaler = FitScaler(ds.X)
	X := m.scaler.TransformAll(ds.X)
	m.targets = fitTargetScaler(ds.Y)
	Y := make([]float64, len(ds.Y))
	for i, y := range ds.Y {
		Y[i] = m.targets.scale(y)
	}

	rng := rand.New(rand.NewSource(m.Seed))
	dims := append([]int{ds.Dim()}, hidden...)
	dims = append(dims, 1)
	m.layers = make([]denseLayer, len(dims)-1)
	for l := range m.layers {
		m.layers[l] = newDenseLayer(dims[l], dims[l+1], rng)
	}
	m.initScratch()

	// Per-layer activation and delta buffers.
	acts := make([][]float64, len(dims))
	for i, d := range dims {
		acts[i] = make([]float64, d)
	}
	deltas := make([][]float64, len(m.layers))
	for l := range m.layers {
		deltas[l] = make([]float64, m.layers[l].out)
	}
	grads := make([]denseGrads, len(m.layers))
	for l := range m.layers {
		grads[l] = newDenseGrads(m.layers[l])
	}

	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}

	const beta1, beta2, adamEps = 0.9, 0.999, 1e-8
	step := 0
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for at := 0; at < len(order); at += batchSize {
			end := at + batchSize
			if end > len(order) {
				end = len(order)
			}
			for l := range grads {
				grads[l].zero()
			}
			for _, idx := range order[at:end] {
				m.refForward(X[idx], acts)
				// Output delta: d(MSE)/d(out) = 2·(out − y), constant folded.
				deltas[len(m.layers)-1][0] = acts[len(acts)-1][0] - Y[idx]
				m.refBackward(acts, deltas, grads)
			}
			step++
			scale := 1 / float64(end-at)
			for l := range m.layers {
				m.layers[l].adamStep(grads[l], scale, lr, beta1, beta2, adamEps, step)
			}
		}
	}
	return nil
}

// refForward computes all layer activations for one standardized input.
// acts[0] receives the input; hidden layers apply ReLU; the final layer is
// linear.
func (m *MLP) refForward(x []float64, acts [][]float64) {
	copy(acts[0], x)
	for l := range m.layers {
		lay := &m.layers[l]
		in, out := acts[l], acts[l+1]
		last := l == len(m.layers)-1
		for o := 0; o < lay.out; o++ {
			s := lay.B[o]
			row := lay.W[o*lay.in : (o+1)*lay.in]
			for i, v := range in {
				s += row[i] * v
			}
			if !last && s < 0 {
				s = 0
			}
			out[o] = s
		}
	}
}

// refBackward accumulates gradients given filled activations and the output
// delta already stored in deltas[last].
func (m *MLP) refBackward(acts, deltas [][]float64, grads []denseGrads) {
	for l := len(m.layers) - 1; l >= 0; l-- {
		lay := &m.layers[l]
		in := acts[l]
		delta := deltas[l]
		g := &grads[l]
		for o := 0; o < lay.out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			g.B[o] += d
			row := g.W[o*lay.in : (o+1)*lay.in]
			for i, v := range in {
				row[i] += d * v
			}
		}
		if l == 0 {
			continue
		}
		// Propagate delta through W and the previous ReLU.
		prev := deltas[l-1]
		for i := range prev {
			prev[i] = 0
		}
		for o := 0; o < lay.out; o++ {
			d := delta[o]
			if d == 0 {
				continue
			}
			row := lay.W[o*lay.in : (o+1)*lay.in]
			for i := range prev {
				prev[i] += d * row[i]
			}
		}
		for i := range prev {
			if acts[l][i] <= 0 { // ReLU derivative
				prev[i] = 0
			}
		}
	}
}

func (g *denseGrads) zero() {
	for i := range g.W {
		g.W[i] = 0
	}
	for i := range g.B {
		g.B[i] = 0
	}
}

// synthFit draws n samples of a width-feature nonlinear surface whose
// targets span several orders of magnitude, like the duration model's.
// Every fourth feature is constant, so the scaler's unit-std branch and
// all-zero input columns (zero deltas downstream of dead ReLUs) are hit.
func synthFit(n, width int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	var ds Dataset
	for i := 0; i < n; i++ {
		x := make([]float64, width)
		for j := range x {
			if j%4 == 3 {
				x[j] = 1
				continue
			}
			x[j] = rng.Float64() * 100
		}
		y := 1 + x[0]*x[0]*0.01
		for j := 1; j < width; j++ {
			y += x[j] * float64(j%5)
		}
		ds.Append(x, y*(1+0.01*rng.NormFloat64()))
	}
	return ds
}

// sameBits reports the first weight, bias or scaler value that differs
// between two fitted models, bit for bit.
func sameBits(t *testing.T, got, want *MLP) {
	t.Helper()
	eq := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: length %d, want %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d] = %v, want %v", what, i, a[i], b[i])
			}
		}
	}
	eq("feat mean", got.scaler.Mean, want.scaler.Mean)
	eq("feat std", got.scaler.Std, want.scaler.Std)
	eq("targets", []float64{got.targets.mean, got.targets.std}, []float64{want.targets.mean, want.targets.std})
	if len(got.layers) != len(want.layers) {
		t.Fatalf("%d layers, want %d", len(got.layers), len(want.layers))
	}
	for l := range got.layers {
		eq("W", got.layers[l].W, want.layers[l].W)
		eq("B", got.layers[l].B, want.layers[l].B)
	}
}

// TestFitMatchesReference holds the blocked trainer to the per-sample one
// bit for bit across dataset sizes that hit every batch shape: short last
// batches padded by one or three rows to whole four-sample blocks (n = 1,
// 3, 31, 33), exactly one batch (32) and the benchmark's 1,200-sample set;
// and across input widths 1, 23 (the two-model codec) and 28.
func TestFitMatchesReference(t *testing.T) {
	for _, n := range []int{1, 3, 31, 32, 33, 1200} {
		for _, width := range []int{1, 23, 28} {
			epochs := 20
			if n == 1200 {
				epochs = 3
			}
			ds := synthFit(n, width, int64(n*100+width))
			got := &MLP{Epochs: epochs, LearningRate: 3e-3, Seed: int64(width)}
			want := &MLP{Epochs: epochs, LearningRate: 3e-3, Seed: int64(width)}
			if err := got.Fit(ds); err != nil {
				t.Fatal(err)
			}
			if err := want.refFit(ds); err != nil {
				t.Fatal(err)
			}
			t.Run("", func(t *testing.T) { sameBits(t, got, want) })
		}
	}
}

// FuzzFitBlocked drives Fit and the per-sample reference with the same
// arbitrary dataset shape, seed and epoch count; the trained models must
// agree bit for bit.
func FuzzFitBlocked(f *testing.F) {
	f.Add(uint8(1), uint8(1), int64(0), uint8(1))
	f.Add(uint8(33), uint8(23), int64(7), uint8(4))
	f.Add(uint8(70), uint8(5), int64(-3), uint8(2))
	f.Fuzz(func(t *testing.T, n, width uint8, seed int64, epochs uint8) {
		if n == 0 || width == 0 || width > 40 {
			return
		}
		ds := synthFit(int(n), int(width), seed)
		e := int(epochs%8) + 1
		got := &MLP{Epochs: e, Seed: seed}
		want := &MLP{Epochs: e, Seed: seed}
		if err := got.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if err := want.refFit(ds); err != nil {
			t.Fatal(err)
		}
		sameBits(t, got, want)
	})
}
