package ml

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// MLP is a fully connected feed-forward regression network trained with
// mini-batch Adam on mean squared error. Its topology is the paper's
// duration model (§5.5): three hidden layers of dimension 32.
type MLP struct {
	// Epochs is the number of passes over the data (default 300).
	Epochs int
	// LearningRate is Adam's step size (default 1e-3).
	LearningRate float64
	// Seed drives initialization and shuffling; training is deterministic
	// given Seed.
	Seed int64

	scaler  *Scaler
	targets targetScaler
	layers  []denseLayer

	// scratch pools batch-sized activation matrices. A fitted MLP is
	// read-only, and pooling (instead of one shared buffer set) keeps
	// Predict and PredictBatch safe for the concurrent sweeps that share
	// one trained model.
	scratch *sync.Pool
	// maxDim is the widest layer dimension (input included): one B×maxDim
	// matrix can hold any layer's batch activations.
	maxDim int
}

// hiddenWidth is the width of each of the three hidden layers; batchSize,
// the mini-batch size, is a multiple of the backward pass's four-sample
// block.
const hiddenWidth, batchSize = 32, 32

// batchScratch is one pooled pair of ping-pong activation matrices for the
// batched forward pass, grown on demand to the largest batch seen.
type batchScratch struct {
	a, b []float64
}

func (s *batchScratch) ensure(n int) {
	if cap(s.a) < n {
		s.a = make([]float64, n)
	}
	if cap(s.b) < n {
		s.b = make([]float64, n)
	}
}

// denseLayer is one affine layer: out = W·in + b, W stored row-major
// (out × in).
type denseLayer struct {
	in, out int
	W, B    []float64
	// Adam state.
	mW, vW, mB, vB []float64
}

func (m *MLP) defaults() (epochs int, lr float64) {
	epochs = m.Epochs
	if epochs <= 0 {
		epochs = 300
	}
	lr = m.LearningRate
	if lr <= 0 {
		lr = 1e-3
	}
	return epochs, lr
}

// Fit trains the network, replacing any previous weights. Features and
// targets are standardized internally. Each mini-batch runs as blocked
// matrix passes (forwardLayerBatch, gradLayerBatch, backLayerBatch) whose
// accumulators add their terms in the order a per-sample loop would, so
// the trained weights are bit-identical to training one sample at a time.
func (m *MLP) Fit(ds Dataset) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	if ds.Len() == 0 {
		return errors.New("ml: empty dataset")
	}
	epochs, lr := m.defaults()

	m.scaler = FitScaler(ds.X)
	X := m.scaler.TransformAll(ds.X)
	m.targets = fitTargetScaler(ds.Y)
	Y := make([]float64, len(ds.Y))
	for i, y := range ds.Y {
		Y[i] = m.targets.scale(y)
	}

	rng := rand.New(rand.NewSource(m.Seed))
	dims := []int{ds.Dim(), hiddenWidth, hiddenWidth, hiddenWidth, 1}
	m.layers = make([]denseLayer, len(dims)-1)
	for l := range m.layers {
		m.layers[l] = newDenseLayer(dims[l], dims[l+1], rng)
	}
	m.initScratch()

	// Per-layer batch matrices (row-major, one row per sample): acts[l]
	// holds layer l's input activations, kept for the backward pass, and
	// deltas[l] the loss gradient at layer l's output.
	acts := make([][]float64, len(dims))
	for i, d := range dims {
		acts[i] = make([]float64, batchSize*d)
	}
	deltas := make([][]float64, len(m.layers))
	grads := make([]denseGrads, len(m.layers))
	for l := range m.layers {
		deltas[l] = make([]float64, batchSize*m.layers[l].out)
		grads[l] = newDenseGrads(m.layers[l])
	}
	last := len(m.layers) - 1

	order := make([]int, len(X))
	for i := range order {
		order[i] = i
	}

	const beta1, beta2, adamEps = 0.9, 0.999, 1e-8
	step := 0
	for epoch := 0; epoch < epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for at := 0; at < len(order); at += batchSize {
			batch := order[at:min(at+batchSize, len(order))]
			// A short last batch is padded to whole four-sample blocks with
			// zero rows whose output deltas are zero, so every delta and
			// gradient term they add is ±0.
			B, in := (len(batch)+3)&^3, dims[0]
			clear(acts[0][len(batch)*in : B*in])
			clear(deltas[last][len(batch):B])
			for b, idx := range batch {
				copy(acts[0][b*in:(b+1)*in], X[idx])
			}
			for l := range m.layers {
				forwardLayerBatch(&m.layers[l], acts[l], acts[l+1], B, l != last)
			}
			// Output delta: d(MSE)/d(out) = 2·(out − y), constant folded.
			for b, idx := range batch {
				deltas[last][b] = acts[last+1][b] - Y[idx]
			}
			for l := last; l >= 0; l-- {
				gradLayerBatch(&m.layers[l], &grads[l], acts[l], deltas[l], B)
				if l > 0 {
					backLayerBatch(&m.layers[l], deltas[l], deltas[l-1], acts[l], B)
				}
			}
			step++
			scale := 1 / float64(len(batch))
			for l := range m.layers {
				m.layers[l].adamStep(grads[l], scale, lr, beta1, beta2, adamEps, step)
			}
		}
	}
	return nil
}

func newDenseLayer(in, out int, rng *rand.Rand) denseLayer {
	l := denseLayer{
		in: in, out: out,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		mW: make([]float64, in*out),
		vW: make([]float64, in*out),
		mB: make([]float64, out),
		vB: make([]float64, out),
	}
	// He initialization for ReLU networks.
	std := math.Sqrt(2 / float64(in))
	for i := range l.W {
		l.W[i] = rng.NormFloat64() * std
	}
	return l
}

type denseGrads struct {
	W, B []float64
}

func newDenseGrads(l denseLayer) denseGrads {
	return denseGrads{W: make([]float64, len(l.W)), B: make([]float64, len(l.B))}
}

// gradLayerBatch sets g to a batch's gradient: g.B[o] = Σ_b delta[b][o] and
// g.W[o][i] = Σ_b delta[b][o]·in[b][i], B a multiple of four. Samples are
// blocked four wide so each gradient-row load absorbs four samples, and
// every entry adds its terms from +0 in ascending sample order: the float
// sequence of accumulating one sample at a time. That loop skipped zero
// deltas; adding ±0 to an entry that starts at +0 never changes its bits.
func gradLayerBatch(lay *denseLayer, g *denseGrads, in, delta []float64, B int) {
	ind, outd := lay.in, lay.out
	clear(g.W)
	for o := 0; o < outd; o++ {
		row := g.W[o*ind : (o+1)*ind]
		gb := 0.0
		for b := 0; b < B; b += 4 {
			d0, d1, d2, d3 := delta[(b+0)*outd+o], delta[(b+1)*outd+o], delta[(b+2)*outd+o], delta[(b+3)*outd+o]
			gb += d0
			gb += d1
			gb += d2
			gb += d3
			x0 := in[(b+0)*ind : (b+1)*ind]
			x1 := in[(b+1)*ind : (b+2)*ind]
			x2 := in[(b+2)*ind : (b+3)*ind]
			x3 := in[(b+3)*ind : (b+4)*ind]
			for i, r := range row {
				r += d0 * x0[i]
				r += d1 * x1[i]
				r += d2 * x2[i]
				r += d3 * x3[i]
				row[i] = r
			}
		}
		g.B[o] = gb
	}
}

// backLayerBatch propagates a batch's output deltas through lay's weights
// and the ReLU that produced its input: prev[b][i] = Σ_o delta[b][o]·W[o][i],
// summed from +0 in ascending o as the per-sample loop did, then zeroed
// where in[b][i] ≤ 0. B is a multiple of four; each weight-row load feeds
// four delta rows.
func backLayerBatch(lay *denseLayer, delta, prev, in []float64, B int) {
	ind, outd := lay.in, lay.out
	clear(prev[:B*ind])
	for b := 0; b < B; b += 4 {
		p0 := prev[(b+0)*ind : (b+1)*ind]
		p1 := prev[(b+1)*ind : (b+2)*ind]
		p2 := prev[(b+2)*ind : (b+3)*ind]
		p3 := prev[(b+3)*ind : (b+4)*ind]
		for o := 0; o < outd; o++ {
			d0, d1, d2, d3 := delta[(b+0)*outd+o], delta[(b+1)*outd+o], delta[(b+2)*outd+o], delta[(b+3)*outd+o]
			for i, w := range lay.W[o*ind : (o+1)*ind] {
				p0[i] += d0 * w
				p1[i] += d1 * w
				p2[i] += d2 * w
				p3[i] += d3 * w
			}
		}
	}
	for i, a := range in[:B*ind] {
		if a <= 0 { // ReLU derivative
			prev[i] = 0
		}
	}
}

// adamStep applies one Adam update. beta1 and beta2 are float64 parameters
// on purpose: 1-beta1 and 1-beta2 are then run-time subtractions, whereas
// untyped constants would fold to exactly 0.1 and 0.001 and move the last
// bit of the trained weights.
func (l *denseLayer) adamStep(g denseGrads, scale, lr, beta1, beta2, eps float64, step int) {
	bc1 := 1 - math.Pow(beta1, float64(step))
	bc2 := 1 - math.Pow(beta2, float64(step))
	for i := range l.W {
		grad := g.W[i] * scale
		l.mW[i] = beta1*l.mW[i] + (1-beta1)*grad
		l.vW[i] = beta2*l.vW[i] + (1-beta2)*grad*grad
		l.W[i] -= lr * (l.mW[i] / bc1) / (math.Sqrt(l.vW[i]/bc2) + eps)
	}
	for i := range l.B {
		grad := g.B[i] * scale
		l.mB[i] = beta1*l.mB[i] + (1-beta1)*grad
		l.vB[i] = beta2*l.vB[i] + (1-beta2)*grad*grad
		l.B[i] -= lr * (l.mB[i] / bc1) / (math.Sqrt(l.vB[i]/bc2) + eps)
	}
}

func (m *MLP) initScratch() {
	m.maxDim = m.layers[0].in
	for l := range m.layers {
		if m.layers[l].out > m.maxDim {
			m.maxDim = m.layers[l].out
		}
	}
	m.scratch = &sync.Pool{New: func() any { return &batchScratch{} }}
}

// forwardLayerBatch applies one dense layer to a B×in row-major activation
// matrix, writing a B×out matrix. Samples are blocked four wide so each
// weight-row load feeds four independent accumulator chains; every
// accumulator still starts at the bias and adds terms in ascending input
// order, the exact float sequence of the scalar path, so blocked and
// per-sample evaluation are bit-identical.
func forwardLayerBatch(lay *denseLayer, in, out []float64, B int, relu bool) {
	ind, outd := lay.in, lay.out
	b := 0
	for ; b+4 <= B; b += 4 {
		x0 := in[(b+0)*ind : (b+1)*ind]
		x1 := in[(b+1)*ind : (b+2)*ind]
		x2 := in[(b+2)*ind : (b+3)*ind]
		x3 := in[(b+3)*ind : (b+4)*ind]
		for o := 0; o < outd; o++ {
			row := lay.W[o*ind : (o+1)*ind]
			s0, s1, s2, s3 := lay.B[o], lay.B[o], lay.B[o], lay.B[o]
			for i, w := range row {
				s0 += w * x0[i]
				s1 += w * x1[i]
				s2 += w * x2[i]
				s3 += w * x3[i]
			}
			if relu {
				if s0 < 0 {
					s0 = 0
				}
				if s1 < 0 {
					s1 = 0
				}
				if s2 < 0 {
					s2 = 0
				}
				if s3 < 0 {
					s3 = 0
				}
			}
			out[(b+0)*outd+o] = s0
			out[(b+1)*outd+o] = s1
			out[(b+2)*outd+o] = s2
			out[(b+3)*outd+o] = s3
		}
	}
	for ; b < B; b++ {
		x := in[b*ind : (b+1)*ind]
		for o := 0; o < outd; o++ {
			row := lay.W[o*ind : (o+1)*ind]
			s := lay.B[o]
			for i, w := range row {
				s += w * x[i]
			}
			if relu && s < 0 {
				s = 0
			}
			out[b*outd+o] = s
		}
	}
}

// forwardPooled runs the layer stack over the already-standardized B×in
// matrix in s.a and returns the B×1 output column (a view into the
// scratch, valid until s is reused).
func (m *MLP) forwardPooled(s *batchScratch, B int) []float64 {
	ping, pong := s.a, s.b
	cur := ping[:B*m.layers[0].in]
	for l := range m.layers {
		out := pong[:B*m.layers[l].out]
		forwardLayerBatch(&m.layers[l], cur, out, B, l != len(m.layers)-1)
		cur = out
		ping, pong = pong, ping
	}
	return cur
}

// Predict evaluates the network at one raw feature vector — the B=1 case
// of the batched forward.
func (m *MLP) Predict(x []float64) float64 {
	if m.layers == nil {
		panic("ml: MLP.Predict before Fit")
	}
	if len(x) != m.layers[0].in {
		panic(fmt.Sprintf("ml: MLP input width %d, want %d", len(x), m.layers[0].in))
	}
	s := m.scratch.Get().(*batchScratch)
	s.ensure(m.maxDim)
	m.scaler.TransformTo(s.a[:len(x)], x)
	y := m.targets.unscale(m.forwardPooled(s, 1)[0])
	m.scratch.Put(s)
	return y
}

// PredictBatchTo evaluates the network over a batch of raw feature vectors
// into a caller-owned destination (len(dst) == len(X)) — the batched
// evaluation the paper's multi-way search feeds the duration model (§6.3).
// One blocked matrix-multiply per layer over pooled scratch; outputs are
// bit-identical to calling Predict per row. Beyond the pooled scratch it
// does not allocate, which keeps the scheduler's span search off the
// garbage collector.
func (m *MLP) PredictBatchTo(dst []float64, X [][]float64) {
	if m.layers == nil {
		panic("ml: MLP.PredictBatchTo before Fit")
	}
	if len(dst) != len(X) {
		panic(fmt.Sprintf("ml: PredictBatchTo dst length %d, want %d", len(dst), len(X)))
	}
	B := len(X)
	if B == 0 {
		return
	}
	ind := m.layers[0].in
	s := m.scratch.Get().(*batchScratch)
	s.ensure(B * m.maxDim)
	for i, x := range X {
		if len(x) != ind {
			m.scratch.Put(s)
			panic(fmt.Sprintf("ml: MLP input width %d, want %d", len(x), ind))
		}
		m.scaler.TransformTo(s.a[i*ind:(i+1)*ind], x)
	}
	out := m.forwardPooled(s, B)
	for i := range dst {
		dst[i] = m.targets.unscale(out[i])
	}
	m.scratch.Put(s)
}

// InputWidth returns the feature width a fitted network takes.
func (m *MLP) InputWidth() int { return m.layers[0].in }

// ParamCount returns the number of trainable parameters (the paper's §7.8
// predictor-footprint accounting: weights ≈ 14 kB).
func (m *MLP) ParamCount() int {
	n := 0
	for _, l := range m.layers {
		n += len(l.W) + len(l.B)
	}
	return n
}
