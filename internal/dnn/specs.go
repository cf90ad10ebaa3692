package dnn

import (
	"slices"
	"sync/atomic"

	"abacus/internal/gpusim"
)

// Specs is a table of kernel specs bound to one device profile. An
// operator's kernel is fixed by its model and input (paper §5.2), so the
// first lookup of a (model, input) stores KernelFor of every operator of
// the model, once, checked, and every later lookup of that pair reads the
// same entry. Entries are immutable once stored; lookups are lock-free and
// allocation-free, and any number of goroutines may share one table.
//
// The table has one slot per input in a model's served domain (batch
// MinBatch..MaxBatch × its sequence lengths), so it is bounded by that
// domain, not by traffic: at most NumOps × inputs × 40 B per model. An
// input outside the domain bypasses the table.
//
// Scope a table to one host — a simulation run or a gateway — and share it
// among that host's nodes, so that it dies with the host.
type Specs struct {
	profile gpusim.Profile
	rows    [NumModels]specRow
}

// specRow holds one model's entries, indexed by specSlot.
type specRow struct {
	model *Model
	slots []atomic.Pointer[gpusim.CheckedSpecs]
}

// NewSpecs returns an empty table bound to p.
func NewSpecs(p gpusim.Profile) *Specs {
	s := &Specs{profile: p}
	for id := range s.rows {
		m := Get(ModelID(id))
		n := (m.MaxBatch - m.MinBatch + 1) * max(len(m.SeqLens), 1)
		s.rows[id] = specRow{model: m, slots: make([]atomic.Pointer[gpusim.CheckedSpecs], n)}
	}
	return s
}

// Profile returns the device profile the table derives its specs for.
func (s *Specs) Profile() gpusim.Profile { return s.profile }

// Span returns the kernel specs of operators [start, end) of model id at
// input in, bit-equal to Kernels(Get(id), in, s.Profile(), start, end) and
// checked. The specs are shared with every other caller and must not be
// written. Span panics on an invalid span.
func (s *Specs) Span(id ModelID, in Input, start, end int) gpusim.CheckedSpecs {
	r := &s.rows[id]
	checkSpan(r.model, start, end)
	i := specSlot(r.model, in)
	if i < 0 {
		return gpusim.CheckSpecs(Kernels(r.model, in, s.profile, start, end))
	}
	e := r.slots[i].Load()
	if e == nil {
		e = r.fill(i, in, s.profile)
	}
	return e.Slice(start, end)
}

// fill stores the model's whole spec list at input in, checked, into slot
// i, unless a concurrent caller stored it first, and returns the stored
// entry.
func (r *specRow) fill(i int, in Input, p gpusim.Profile) *gpusim.CheckedSpecs {
	e := gpusim.CheckSpecs(Kernels(r.model, in, p, 0, len(r.model.Ops)))
	if r.slots[i].CompareAndSwap(nil, &e) {
		return &e
	}
	return r.slots[i].Load()
}

// specSlot returns in's index within m's served domain, or -1 outside it.
func specSlot(m *Model, in Input) int {
	if m.CheckInput(in) != nil {
		return -1
	}
	b := in.Batch - m.MinBatch
	if !m.IsSequence() {
		return b
	}
	return b*len(m.SeqLens) + slices.Index(m.SeqLens, in.SeqLen)
}
