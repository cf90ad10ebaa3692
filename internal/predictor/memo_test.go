package predictor

import (
	"math/rand"
	"testing"

	"abacus/internal/dnn"
)

// funcModel is a pure latency model over an arbitrary function, counting
// every individual prediction the inner model is asked to compute.
type funcModel struct {
	f     func(Group) float64
	calls int
}

func (m *funcModel) Predict(g Group) float64 {
	m.calls++
	return m.f(g)
}

func (m *funcModel) PredictBatch(gs []Group) []float64 {
	out := make([]float64, len(gs))
	for i, g := range gs {
		out[i] = m.Predict(g)
	}
	return out
}

// groupValue is an arbitrary deterministic latency surface for the tests.
func groupValue(g Group) float64 {
	v := 1.0
	for _, e := range g {
		v += float64(e.Model)*1000 + float64(e.OpStart)*17 + float64(e.OpEnd)*3 +
			float64(e.Batch)*0.5 + float64(e.SeqLen)*0.25
	}
	return v
}

// randomGroup draws a valid group of 1–3 distinct models from a small
// universe, so interleavings revisit signatures often.
func randomGroup(rng *rand.Rand) Group {
	models := []dnn.ModelID{dnn.ResNet50, dnn.ResNet152, dnn.InceptionV3}
	rng.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	n := 1 + rng.Intn(3)
	g := make(Group, 0, n)
	for _, id := range models[:n] {
		ops := dnn.Get(id).NumOps()
		start := rng.Intn(ops)
		g = append(g, Entry{
			Model:   id,
			OpStart: start,
			OpEnd:   start + 1 + rng.Intn(ops-start),
			Batch:   1 + rng.Intn(4),
		})
	}
	return g
}

// TestMemoizedExtensionalEquality is the memo's property test: under random
// interleavings of Predict and PredictBatch, a Memoized wrapper over a pure
// model returns exactly what the bare model returns — with a capacity small
// enough that eviction churns constantly.
func TestMemoizedExtensionalEquality(t *testing.T) {
	for _, capacity := range []int{1, 3, 64} {
		rng := rand.New(rand.NewSource(int64(11 + capacity)))
		inner := &funcModel{f: groupValue}
		m := NewMemoized(inner, capacity)
		for step := 0; step < 2000; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				g := randomGroup(rng)
				if got, want := m.Predict(g), groupValue(g); got != want {
					t.Fatalf("cap=%d step %d: Predict=%v want %v", capacity, step, got, want)
				}
			default:
				gs := make([]Group, 1+rng.Intn(6))
				for i := range gs {
					if i > 0 && rng.Intn(4) == 0 {
						gs[i] = gs[i-1] // in-batch duplicate
					} else {
						gs[i] = randomGroup(rng)
					}
				}
				got := m.PredictBatch(gs)
				for i, g := range gs {
					if want := groupValue(g); got[i] != want {
						t.Fatalf("cap=%d step %d: PredictBatch[%d]=%v want %v", capacity, step, i, got[i], want)
					}
				}
			}
		}
		st := m.Stats()
		if st.Capacity != capacity || st.Size > capacity {
			t.Fatalf("cap=%d: stats %+v inconsistent with capacity", capacity, st)
		}
		if int(st.Misses) != inner.calls {
			t.Fatalf("cap=%d: %d misses but inner computed %d predictions", capacity, st.Misses, inner.calls)
		}
		if st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("cap=%d: degenerate interleaving: %+v", capacity, st)
		}
		if capacity < 64 && st.Evictions == 0 {
			t.Fatalf("cap=%d: no evictions exercised: %+v", capacity, st)
		}
	}
}

func TestMemoizedCaching(t *testing.T) {
	inner := &funcModel{f: groupValue}
	m := NewMemoized(inner, 8)
	g := Group{{Model: dnn.ResNet50, OpStart: 0, OpEnd: 10, Batch: 2}}
	first := m.Predict(g)
	if m.Predict(g) != first || inner.calls != 1 {
		t.Fatalf("repeat Predict recomputed: calls=%d", inner.calls)
	}
	// Same signature via a differently ordered two-entry group still keys
	// canonically.
	g2 := Group{
		{Model: dnn.ResNet152, OpStart: 5, OpEnd: 9, Batch: 1},
		{Model: dnn.ResNet50, OpStart: 0, OpEnd: 10, Batch: 2},
	}
	g2sorted := Group{g2[1], g2[0]}
	m.Predict(g2)
	calls := inner.calls
	if m.Predict(g2sorted) != groupValue(g2) || inner.calls != calls {
		t.Fatalf("entry order changed the cache key")
	}
	st := m.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("stats %+v, want 2 hits / 2 misses / 2 entries", st)
	}
}

func TestMemoizedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil inner", func() { NewMemoized(nil, 4) })
	mustPanic("zero capacity", func() { NewMemoized(&funcModel{f: groupValue}, 0) })
}
