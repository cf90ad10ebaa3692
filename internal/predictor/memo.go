package predictor

import (
	"encoding/binary"
	"fmt"
)

// Memoized wraps a LatencyModel with a bounded group-signature cache.
// Steady-state scheduling re-predicts the same handful of group signatures
// on every round; the cache answers those repeats without re-running the
// duration model, while staying fully deterministic: the key is the
// canonical sorted-entry signature, eviction is clock (second-chance) over
// a fixed ring, and no wall-clock or randomness is consulted.
//
// The inner model must be a pure function of the group (Oracle, a trained
// Predictor) for the wrapper to be extensionally transparent; wrapping a
// stateful model such as Perturbed would change its noise-stream
// consumption, and wrapping a calibrated one would serve stale values after
// a refit. Stateful layers go above the cache (fleet.NewStack), so nothing
// ever needs invalidating.
//
// Memoized is not safe for concurrent use; like the other latency models
// it is owned by a single scheduler loop.
type Memoized struct {
	inner LatencyModel
	index map[string]int // canonical signature → ring slot
	slots []memoSlot
	hand  int
	stats MemoStats

	keyBuf  []byte // reusable key scratch
	missBuf []Group
	missIdx []int
	seen    map[string]int
}

type memoSlot struct {
	key  string
	lat  float64
	ref  bool // second-chance bit
	used bool
}

// MemoStats is a snapshot of cache effectiveness counters. Hits and Misses
// count individual group predictions (a PredictBatch of n groups
// contributes n); Misses is exactly the number of predictions the inner
// model actually computed — the honest measure of model work saved.
type MemoStats struct {
	Capacity  int    `json:"capacity"`
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Merge adds o's counters, capacity and size included, into s.
func (s *MemoStats) Merge(o MemoStats) {
	s.Capacity += o.Capacity
	s.Size += o.Size
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
}

// NewMemoized wraps inner with a cache of at most capacity entries.
func NewMemoized(inner LatencyModel, capacity int) *Memoized {
	if inner == nil {
		panic("predictor: Memoized requires an inner model")
	}
	if capacity < 1 {
		panic(fmt.Sprintf("predictor: Memoized capacity %d", capacity))
	}
	return &Memoized{
		inner: inner,
		index: make(map[string]int, capacity),
		slots: make([]memoSlot, capacity),
		stats: MemoStats{Capacity: capacity},
	}
}

// Stats returns a snapshot of the cache counters.
func (m *Memoized) Stats() MemoStats {
	s := m.stats
	s.Size = len(m.index)
	return s
}

// appendKey appends the canonical signature of g: its entries in ascending
// model-id order (models in a valid group are distinct), each field
// varint-encoded. Selection by rank avoids sorting scratch; groups hold at
// most MaxCoLocated entries.
func appendKey(dst []byte, g Group) []byte {
	for slot := 0; slot < len(g); slot++ {
		for i := range g {
			rank := 0
			for j := range g {
				if g[j].Model < g[i].Model {
					rank++
				}
			}
			if rank != slot {
				continue
			}
			e := g[i]
			dst = binary.AppendVarint(dst, int64(e.Model))
			dst = binary.AppendVarint(dst, int64(e.OpStart))
			dst = binary.AppendVarint(dst, int64(e.OpEnd))
			dst = binary.AppendVarint(dst, int64(e.Batch))
			dst = binary.AppendVarint(dst, int64(e.SeqLen))
			break
		}
	}
	return dst
}

// lookup returns the cached latency for key, marking the slot recently
// used.
func (m *Memoized) lookup(key []byte) (float64, bool) {
	i, ok := m.index[string(key)] // no alloc: []byte→string map-lookup form
	if !ok {
		return 0, false
	}
	m.slots[i].ref = true
	return m.slots[i].lat, true
}

// insert stores key → lat, evicting by clock second-chance when full.
func (m *Memoized) insert(key []byte, lat float64) {
	for {
		s := &m.slots[m.hand]
		if !s.used {
			break
		}
		if s.ref {
			s.ref = false
			m.hand = (m.hand + 1) % len(m.slots)
			continue
		}
		delete(m.index, s.key)
		m.stats.Evictions++
		break
	}
	m.slots[m.hand] = memoSlot{key: string(key), lat: lat, used: true}
	m.index[m.slots[m.hand].key] = m.hand
	m.hand = (m.hand + 1) % len(m.slots)
}

// Predict implements LatencyModel.
func (m *Memoized) Predict(g Group) float64 {
	m.keyBuf = appendKey(m.keyBuf[:0], g)
	if lat, ok := m.lookup(m.keyBuf); ok {
		m.stats.Hits++
		return lat
	}
	m.stats.Misses++
	lat := m.inner.Predict(g)
	m.insert(m.keyBuf, lat)
	return lat
}

// PredictBatch implements LatencyModel. Hits are answered from the cache;
// the misses — deduplicated within the batch — go to the inner model in one
// batched call, so the miss count stays the true number of inner
// predictions.
func (m *Memoized) PredictBatch(gs []Group) []float64 {
	out := make([]float64, len(gs))
	m.missBuf = m.missBuf[:0]
	m.missIdx = m.missIdx[:0]
	if m.seen == nil {
		m.seen = make(map[string]int)
	}
	for k := range m.seen {
		delete(m.seen, k)
	}
	var dups [][2]int // (output index, miss index) for in-batch duplicates
	for i, g := range gs {
		m.keyBuf = appendKey(m.keyBuf[:0], g)
		if lat, ok := m.lookup(m.keyBuf); ok {
			m.stats.Hits++
			out[i] = lat
			continue
		}
		if j, dup := m.seen[string(m.keyBuf)]; dup {
			// Answered by the in-flight miss, not by extra inner work.
			m.stats.Hits++
			dups = append(dups, [2]int{i, j})
			continue
		}
		m.stats.Misses++
		m.seen[string(m.keyBuf)] = len(m.missBuf)
		m.missBuf = append(m.missBuf, g)
		m.missIdx = append(m.missIdx, i)
	}
	if len(m.missBuf) > 0 {
		lats := m.inner.PredictBatch(m.missBuf)
		for j, idx := range m.missIdx {
			out[idx] = lats[j]
			m.keyBuf = appendKey(m.keyBuf[:0], m.missBuf[j])
			m.insert(m.keyBuf, lats[j])
		}
		for _, d := range dups {
			out[d[0]] = lats[d[1]]
		}
	}
	return out
}
