// Package dnn defines the DNN substrate of the Abacus reproduction: operator
// data-flow graphs for the paper's seven serving models (Table 1), and an
// analytic cost model that maps every operator, for a given runtime input
// (batch size, sequence length), to a gpusim kernel spec.
//
// A query is processed by executing the model's operators in topological
// order (paper Figure 1); Abacus schedules contiguous spans of this order.
package dnn

import "fmt"

// OpKind classifies operators by their kernel shape, which determines tile
// granularity and achievable efficiency in the cost model.
type OpKind int

// Operator kinds found in the model zoo.
const (
	Conv2D OpKind = iota
	Dense
	MatMul // activation×activation matmul (attention)
	BatchNorm
	LayerNorm
	ReLU
	GELU
	Softmax
	Add
	Concat
	MaxPool
	AvgPool
	GlobalAvgPool
	Embedding
	numOpKinds
)

var opKindNames = [...]string{
	Conv2D:        "conv2d",
	Dense:         "dense",
	MatMul:        "matmul",
	BatchNorm:     "batchnorm",
	LayerNorm:     "layernorm",
	ReLU:          "relu",
	GELU:          "gelu",
	Softmax:       "softmax",
	Add:           "add",
	Concat:        "concat",
	MaxPool:       "maxpool",
	AvgPool:       "avgpool",
	GlobalAvgPool: "globalavgpool",
	Embedding:     "embedding",
}

// String returns the lowercase operator kind name.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(opKindNames) {
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
	return opKindNames[k]
}

// MatMulLike reports whether the kind executes as a GEMM-style kernel
// (tiled, compute-bound) rather than an elementwise/reduction kernel.
func (k OpKind) MatMulLike() bool {
	return k == Conv2D || k == Dense || k == MatMul
}

// Cost is a per-sample cost polynomial in the sequence length:
//
//	cost(batch, seq) = batch · (C0 + C1·seq + C2·seq²)
//
// CV operators use only C0. BERT dense/elementwise operators scale linearly
// with tokens (C1); attention score/context operators scale quadratically
// (C2).
type Cost struct {
	C0, C1, C2 float64
}

// constCost is a sequence-independent per-sample cost.
func constCost(v float64) Cost { return Cost{C0: v} }

// Eval evaluates the polynomial for one query input.
func (c Cost) Eval(in Input) float64 {
	s := float64(in.SeqLen)
	return float64(in.Batch) * (c.C0 + c.C1*s + c.C2*s*s)
}

// Zero reports whether the cost is identically zero.
func (c Cost) Zero() bool { return c == Cost{} }

// Input is the runtime-varying part of a query (paper §3.3: both drive the
// latency). SeqLen is meaningful only for sequence models; CV models carry
// SeqLen 0.
type Input struct {
	Batch  int
	SeqLen int
}

// Op is one operator of a model's data-flow graph with its analytic costs.
type Op struct {
	Kind OpKind
	Name string

	FLOPs    Cost // floating-point operations per sample
	Bytes    Cost // DRAM traffic per sample (activations + amortized weights)
	OutElems Cost // output elements per sample, drives occupancy

	ParamBytes float64 // resident weight bytes (not per sample)
}

// Model is a DNN expressed as a topologically ordered operator list plus the
// DFG edges it was built from. Ops[i]'s inputs are all at indices < i.
type Model struct {
	Name string
	ID   int // zoo index; set by the zoo builder

	Ops   []Op
	Preds [][]int // Preds[i] lists the operator indices feeding Ops[i]

	InputBytesPerSample Cost // host→device transfer bytes per sample

	MinBatch, MaxBatch int
	SeqLens            []int // allowed sequence lengths; nil for CV models
}

// NumOps returns the number of operators in the model.
func (m *Model) NumOps() int { return len(m.Ops) }

// ParamBytes returns the total resident weight bytes of the model.
func (m *Model) ParamBytes() float64 {
	var s float64
	for i := range m.Ops {
		s += m.Ops[i].ParamBytes
	}
	return s
}

// FLOPs returns the total per-query floating-point operations for an input.
func (m *Model) FLOPs(in Input) float64 {
	var s float64
	for i := range m.Ops {
		s += m.Ops[i].FLOPs.Eval(in)
	}
	return s
}

// InputBytes returns the host→device transfer volume of one query.
func (m *Model) InputBytes(in Input) float64 {
	return m.InputBytesPerSample.Eval(in)
}

// IsSequence reports whether the model consumes a sequence length (BERT).
func (m *Model) IsSequence() bool { return len(m.SeqLens) > 0 }

// MaxInput returns the largest input the model serves (paper: QoS targets
// are 2× the solo latency of the maximum input).
func (m *Model) MaxInput() Input {
	in := Input{Batch: m.MaxBatch}
	if m.IsSequence() {
		in.SeqLen = m.SeqLens[len(m.SeqLens)-1]
	}
	return in
}

// MinInput returns the smallest served input (used by the small-DNN
// experiment, Figure 16).
func (m *Model) MinInput() Input {
	in := Input{Batch: m.MinBatch}
	if m.IsSequence() {
		in.SeqLen = m.SeqLens[0]
	}
	return in
}

// CheckInput reports why in lies outside the model's served envelope (paper
// Table 1: a batch in MinBatch..MaxBatch and, for sequence models, one of
// SeqLens; other models take no sequence length), or nil when it is served.
// Every front end that accepts inputs from outside the program checks them
// here. An input that is served costs no allocation.
func (m *Model) CheckInput(in Input) error {
	if in.Batch < m.MinBatch || in.Batch > m.MaxBatch {
		return fmt.Errorf("batch %d outside served range [%d, %d]", in.Batch, m.MinBatch, m.MaxBatch)
	}
	if !m.IsSequence() {
		if in.SeqLen != 0 {
			return fmt.Errorf("model %q takes no sequence length", m.Name)
		}
		return nil
	}
	for _, sl := range m.SeqLens {
		if in.SeqLen == sl {
			return nil
		}
	}
	return fmt.Errorf("seqlen %d not served (allowed %v)", in.SeqLen, m.SeqLens)
}

// ValidateTopology checks that Preds edges respect the topological order and
// index range. The model builders guarantee this; tests call it as an
// invariant.
func (m *Model) ValidateTopology() error {
	if len(m.Preds) != len(m.Ops) {
		return fmt.Errorf("dnn: %s: Preds length %d != Ops length %d", m.Name, len(m.Preds), len(m.Ops))
	}
	for i, ps := range m.Preds {
		for _, p := range ps {
			if p < 0 || p >= i {
				return fmt.Errorf("dnn: %s: op %d (%s) has non-topological pred %d", m.Name, i, m.Ops[i].Name, p)
			}
		}
	}
	return nil
}

// graph is the incremental DFG builder used by the model constructors.
// Operators are appended in topological order by construction.
type graph struct {
	ops   []Op
	preds [][]int
}

// add appends op depending on the given earlier operator indices and returns
// its index.
func (g *graph) add(op Op, deps ...int) int {
	idx := len(g.ops)
	for _, d := range deps {
		if d < 0 || d >= idx {
			panic(fmt.Sprintf("dnn: op %q: dependency %d out of range [0,%d)", op.Name, d, idx))
		}
	}
	g.ops = append(g.ops, op)
	g.preds = append(g.preds, append([]int(nil), deps...))
	return idx
}

// build finalizes the graph into a Model.
func (g *graph) build(name string) *Model {
	return &Model{
		Name:  name,
		Ops:   g.ops,
		Preds: g.preds,
	}
}
