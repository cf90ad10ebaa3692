// Package predictor implements the paper's overlap-aware latency predictor
// (§5): the operator-group abstraction, the Figure 8 feature encoding, the
// Figure 9 instance-based sampler, ground-truth collection on the simulated
// device, and training/evaluation of the MLP duration model and its LR/SVM
// baselines.
package predictor

import (
	"fmt"
	"sort"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/sim"
)

// Entry is one query's contribution to an operator group: a contiguous span
// [OpStart, OpEnd) of its model's topologically ordered operators, at the
// query's runtime input.
type Entry struct {
	Model   dnn.ModelID
	OpStart int // inclusive
	OpEnd   int // exclusive
	Batch   int
	SeqLen  int // zero for CV models
}

// Input returns the dnn input of the entry.
func (e Entry) Input() dnn.Input { return dnn.Input{Batch: e.Batch, SeqLen: e.SeqLen} }

// Validate checks the span and input against the model's domains.
func (e Entry) Validate() error {
	m := dnn.Get(e.Model)
	if e.OpStart < 0 || e.OpEnd > m.NumOps() || e.OpStart >= e.OpEnd {
		return fmt.Errorf("predictor: %s span [%d,%d) invalid for %d ops", m.Name, e.OpStart, e.OpEnd, m.NumOps())
	}
	if e.Batch < 1 {
		return fmt.Errorf("predictor: %s batch %d invalid", m.Name, e.Batch)
	}
	if m.IsSequence() && e.SeqLen < 1 {
		return fmt.Errorf("predictor: %s requires a sequence length", m.Name)
	}
	return nil
}

// Group is a deterministic operator schedule group: the spans of all queries
// that will be issued together and executed concurrently until every span
// completes (paper §5.1).
type Group []Entry

// Validate checks every entry and that models are distinct (the executor
// runs one process per service, so one span per service per group).
func (g Group) Validate() error {
	seen := map[dnn.ModelID]bool{}
	for _, e := range g {
		if err := e.Validate(); err != nil {
			return err
		}
		if seen[e.Model] {
			return fmt.Errorf("predictor: duplicate model %s in group", e.Model)
		}
		seen[e.Model] = true
	}
	return nil
}

// sorted returns the group ordered by model id, the canonical slot order of
// the feature encoding.
func (g Group) sorted() Group {
	out := append(Group(nil), g...)
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Measure executes the group on a fresh full device — every span issued at
// time zero, chains advancing concurrently under contention — and returns
// the makespan. With sigma > 0, seeded lognormal noise perturbs each kernel
// launch, emulating the paper's run-to-run measurement jitter (§5.2).
func Measure(g Group, p gpusim.Profile, sigma float64, seed int64) float64 {
	return MeasureOn(g, noisyDevice(p, sigma, seed), nil)
}

// noisyDevice returns an idle device on a fresh engine, with lognormal
// per-kernel jitter sigma drawn from seed when sigma > 0.
func noisyDevice(p gpusim.Profile, sigma float64, seed int64) *gpusim.Device {
	dev := gpusim.New(sim.NewEngine(), p)
	if sigma > 0 {
		dev.EnableNoise(sigma, seed)
	}
	return dev
}

// MeasureOn executes the group on the given idle device starting at the
// engine's current time and returns the group latency (makespan). The
// device must have no resident kernels. specs, when non-nil, must be bound
// to the device's profile; nil derives the spans' specs afresh.
func MeasureOn(g Group, dev *gpusim.Device, specs *dnn.Specs) float64 {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	eng := dev.Engine()
	start := eng.Now()
	var finish sim.Time
	remaining := len(g)
	if remaining == 0 {
		return 0
	}
	done := func(any) {
		remaining--
		if remaining == 0 {
			finish = eng.Now()
		}
	}
	for _, e := range g {
		var span gpusim.CheckedSpecs
		if specs != nil {
			span = specs.Span(e.Model, e.Input(), e.OpStart, e.OpEnd)
		} else {
			span = gpusim.CheckSpecs(dnn.Kernels(dnn.Get(e.Model), e.Input(), dev.Profile(), e.OpStart, e.OpEnd))
		}
		dev.RunChainArg(span, done, nil)
	}
	eng.Run()
	return finish - start
}
