package dnn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"abacus/internal/gpusim"
)

// servedInputs lists every input in m's validated domain: each batch in
// [MinBatch, MaxBatch] with each served sequence length (0 for CV models).
func servedInputs(m *Model) []Input {
	seqs := m.SeqLens
	if !m.IsSequence() {
		seqs = []int{0}
	}
	var out []Input
	for b := m.MinBatch; b <= m.MaxBatch; b++ {
		for _, s := range seqs {
			out = append(out, Input{Batch: b, SeqLen: s})
		}
	}
	return out
}

// diffKernelFor reports the first difference between got and a KernelFor
// loop over operators [start, start+len(got)) of m at in, comparing every
// float bit for bit; "" when there is none.
func diffKernelFor(got []gpusim.KernelSpec, m *Model, in Input, p gpusim.Profile, start int) string {
	for i, g := range got {
		w := KernelFor(&m.Ops[start+i], in, p)
		if g.Name != w.Name ||
			math.Float64bits(g.Work) != math.Float64bits(w.Work) ||
			math.Float64bits(g.SMFrac) != math.Float64bits(w.SMFrac) ||
			math.Float64bits(g.MemFrac) != math.Float64bits(w.MemFrac) {
			return fmt.Sprintf("%s %+v op %d: got %+v, KernelFor %+v", m.Name, in, start+i, g, w)
		}
	}
	return ""
}

// TestSpecsMatchKernelFor: every entry of the table, for every zoo model at
// every served input, is a KernelFor loop bit for bit; a span is a capped
// window onto the one stored entry; concurrent first lookups agree on that
// entry; and a warm lookup allocates nothing.
func TestSpecsMatchKernelFor(t *testing.T) {
	p := gpusim.A100Profile()
	tab := NewSpecs(p)
	for _, m := range All() {
		id := ModelID(m.ID)
		for _, in := range servedInputs(m) {
			all := tab.Span(id, in, 0, m.NumOps()).Specs()
			if len(all) != m.NumOps() {
				t.Fatalf("%s %+v: %d specs, want %d", m.Name, in, len(all), m.NumOps())
			}
			if d := diffKernelFor(all, m, in, p, 0); d != "" {
				t.Fatal(d)
			}
			start, end := m.NumOps()/3, 2*m.NumOps()/3
			span := tab.Span(id, in, start, end).Specs()
			if len(span) != end-start || cap(span) != end-start || &span[0] != &all[start] {
				t.Fatalf("%s %+v: span [%d,%d) is not a capped window onto the stored entry", m.Name, in, start, end)
			}
		}
	}

	// Out of the served domain the table is bypassed, with the same values.
	res50 := Get(ResNet50)
	for _, in := range []Input{{Batch: 64}, {Batch: 2}, {Batch: 8, SeqLen: 16}} {
		if d := diffKernelFor(tab.Span(ResNet50, in, 0, res50.NumOps()).Specs(), res50, in, p, 0); d != "" {
			t.Error(d)
		}
	}

	// Eight goroutines race to fill a fresh table; every lookup of a key
	// must return the one entry that was stored.
	shared := NewSpecs(p)
	const workers = 8
	first := make([][]*gpusim.KernelSpec, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, m := range All() {
				for _, in := range servedInputs(m) {
					first[w] = append(first[w], &shared.Span(ModelID(m.ID), in, 0, m.NumOps()).Specs()[0])
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k := range first[0] {
			if first[w][k] != first[0][k] {
				t.Fatalf("goroutine %d saw a different entry for key %d", w, k)
			}
		}
	}

	res152 := Get(ResNet152)
	in := Input{Batch: 8}
	tab.Span(ResNet152, in, 0, res152.NumOps())
	if allocs := testing.AllocsPerRun(100, func() { tab.Span(ResNet152, in, 10, 50) }); allocs != 0 {
		t.Errorf("warm Span allocated %v times, want 0", allocs)
	}
}

// FuzzSpecSpan: a random model, an in-domain input and a random span read
// from one table that persists across inputs (so both its fill and its hit
// paths run) equal a KernelFor loop bit for bit.
func FuzzSpecSpan(f *testing.F) {
	f.Add(uint8(ResNet152), uint8(4), uint8(0), uint16(0), uint16(600))
	f.Add(uint8(Bert), uint8(28), uint8(3), uint16(17), uint16(40))
	f.Add(uint8(InceptionV3), uint8(0), uint8(0), uint16(9), uint16(0))
	f.Add(uint8(VGG19), uint8(255), uint8(255), uint16(65535), uint16(65535))
	p := gpusim.A100Profile()
	tab := NewSpecs(p)
	f.Fuzz(func(t *testing.T, model, batch, seq uint8, start, length uint16) {
		m := Get(ModelID(int(model) % int(NumModels)))
		in := Input{Batch: m.MinBatch + int(batch)%(m.MaxBatch-m.MinBatch+1)}
		if m.IsSequence() {
			in.SeqLen = m.SeqLens[int(seq)%len(m.SeqLens)]
		}
		s := int(start) % (m.NumOps() + 1)
		e := s + int(length)%(m.NumOps()-s+1)
		got := tab.Span(ModelID(m.ID), in, s, e).Specs()
		if len(got) != e-s {
			t.Fatalf("%s %+v [%d,%d): %d specs", m.Name, in, s, e, len(got))
		}
		if d := diffKernelFor(got, m, in, p, s); d != "" {
			t.Fatal(d)
		}
	})
}
