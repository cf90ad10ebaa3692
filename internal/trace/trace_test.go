package trace

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"abacus/internal/dnn"
)

func models() []dnn.ModelID { return []dnn.ModelID{dnn.ResNet50, dnn.Bert} }

func TestPoissonArrivalsSortedAndInRange(t *testing.T) {
	g := NewGenerator(models(), 1)
	arr := g.Poisson(100, 10_000)
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i].Time < arr[j].Time }) {
		t.Error("arrivals not time-sorted")
	}
	for _, a := range arr {
		if a.Time < 0 || a.Time >= 10_000 {
			t.Fatalf("arrival at %v outside [0, 10000)", a.Time)
		}
		if a.Service < 0 || a.Service >= 2 {
			t.Fatalf("service %d out of range", a.Service)
		}
	}
}

func TestPoissonRateApproximation(t *testing.T) {
	g := NewGenerator(models(), 2)
	const qps, durMS = 200.0, 60_000.0
	arr := g.Poisson(qps, durMS)
	want := qps * durMS / 1000
	got := float64(len(arr))
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("got %v arrivals, want ≈ %v (±10%%)", got, want)
	}
}

func TestPoissonInterArrivalStats(t *testing.T) {
	g := NewGenerator(models(), 3)
	arr := g.Poisson(500, 120_000)
	var gaps []float64
	for i := 1; i < len(arr); i++ {
		gaps = append(gaps, arr[i].Time-arr[i-1].Time)
	}
	var mean float64
	for _, v := range gaps {
		mean += v
	}
	mean /= float64(len(gaps))
	// Exponential gaps: mean ≈ 2ms, stddev ≈ mean.
	var ss float64
	for _, v := range gaps {
		ss += (v - mean) * (v - mean)
	}
	std := math.Sqrt(ss / float64(len(gaps)))
	if math.Abs(mean-2)/2 > 0.1 {
		t.Errorf("mean gap %v, want ≈ 2ms", mean)
	}
	if math.Abs(std-mean)/mean > 0.15 {
		t.Errorf("gap stddev %v vs mean %v; exponential requires ≈ equal", std, mean)
	}
}

func TestRandomInputsRespectDomains(t *testing.T) {
	g := NewGenerator(models(), 4)
	arr := g.Poisson(500, 20_000)
	validBatch := map[int]bool{4: true, 8: true, 16: true, 32: true}
	validSeq := map[int]bool{8: true, 16: true, 32: true, 64: true}
	sawBert := false
	for _, a := range arr {
		if !validBatch[a.Input.Batch] {
			t.Fatalf("batch %d invalid", a.Input.Batch)
		}
		if a.Service == 1 { // Bert
			sawBert = true
			if !validSeq[a.Input.SeqLen] {
				t.Fatalf("seqlen %d invalid", a.Input.SeqLen)
			}
		} else if a.Input.SeqLen != 0 {
			t.Fatalf("CV model with seqlen %d", a.Input.SeqLen)
		}
	}
	if !sawBert {
		t.Error("no Bert arrivals in 10k samples (suspicious)")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(models(), 7).Poisson(100, 5000)
	b := NewGenerator(models(), 7).Poisson(100, 5000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs", i)
		}
	}
	c := NewGenerator(models(), 8).Poisson(100, 5000)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestFixedInput(t *testing.T) {
	g := NewGenerator(models(), 5)
	arr := g.FixedInput(100, 5000, func(svc int) dnn.Input {
		return dnn.Get(models()[svc]).MinInput()
	})
	for _, a := range arr {
		if a.Input.Batch != 4 {
			t.Fatalf("batch %d, want 4", a.Input.Batch)
		}
	}
}

func TestPoissonPanics(t *testing.T) {
	g := NewGenerator(models(), 1)
	for _, fn := range []func(){
		func() { g.Poisson(0, 100) },
		func() { g.Poisson(10, 0) },
		func() { NewGenerator(nil, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMAFTraceShape(t *testing.T) {
	g := NewGenerator(models(), 6)
	cfg := DefaultMAFConfig(100, 30*60_000, 6) // 30 minutes
	arr := g.MAF(cfg)
	if len(arr) == 0 {
		t.Fatal("empty MAF trace")
	}
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i].Time < arr[j].Time }) {
		t.Error("MAF arrivals not sorted")
	}
	// Per-minute rates must vary (diurnal + bursts): compare the busiest
	// and quietest minutes.
	perMin := map[int]int{}
	for _, a := range arr {
		perMin[int(a.Time/60_000)]++
	}
	lo, hi := math.MaxInt32, 0
	for _, n := range perMin {
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if float64(hi) < 1.2*float64(lo) {
		t.Errorf("MAF trace too flat: min %d, max %d per minute", lo, hi)
	}
	// Mean rate within 25% of base.
	mean := float64(len(arr)) / (cfg.DurationMS / 1000)
	if math.Abs(mean-cfg.BaseQPS)/cfg.BaseQPS > 0.25 {
		t.Errorf("mean rate %v, want ≈ %v", mean, cfg.BaseQPS)
	}
}

func TestMAFPanics(t *testing.T) {
	g := NewGenerator(models(), 1)
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	g.MAF(MAFConfig{BaseQPS: 0, DurationMS: 100})
}

// TestMAFBurstKnobOrthogonal pins the stream split: the burst coin draws
// from its own derived stream, so toggling BurstProb must leave every
// non-burst minute's arrivals byte-identical.
func TestMAFBurstKnobOrthogonal(t *testing.T) {
	base := DefaultMAFConfig(100, 20*60_000, 6)
	quiet := base
	quiet.BurstProb = 0
	bursty := NewGenerator(models(), 6).MAF(base)
	calm := NewGenerator(models(), 6).MAF(quiet)

	burstMinutes := map[int]bool{}
	for m := 0; m < 20; m++ {
		if coinAt(base.Seed, m) < base.BurstProb {
			burstMinutes[m] = true
		}
	}
	if len(burstMinutes) == 0 {
		t.Skip("no burst minutes at this seed; pick another")
	}
	perMinute := func(arr []Arrival) map[int][]Arrival {
		out := map[int][]Arrival{}
		for _, a := range arr {
			m := int(a.Time / 60_000)
			out[m] = append(out[m], a)
		}
		return out
	}
	bm, cm := perMinute(bursty), perMinute(calm)
	for m := 0; m < 20; m++ {
		if burstMinutes[m] {
			if len(bm[m]) <= len(cm[m]) {
				t.Errorf("burst minute %d not denser: %d vs %d arrivals", m, len(bm[m]), len(cm[m]))
			}
			continue
		}
		if !reflect.DeepEqual(bm[m], cm[m]) {
			t.Errorf("non-burst minute %d differs when only BurstProb changed", m)
		}
	}
}

// TestMAFPureFunction: the default layout never touches the generator's own
// RNG, so MAF output is independent of what was drawn before it.
func TestMAFPureFunction(t *testing.T) {
	cfg := DefaultMAFConfig(80, 10*60_000, 11)
	fresh := NewGenerator(models(), 11).MAF(cfg)
	warmed := NewGenerator(models(), 11)
	warmed.Poisson(50, 2_000) // consume some of the generator's stream
	if !reflect.DeepEqual(fresh, warmed.MAF(cfg)) {
		t.Fatal("MAF output depends on prior generator draws")
	}
	// And MAF leaves the generator stream untouched for later use.
	a := NewGenerator(models(), 11)
	a.MAF(cfg)
	if !reflect.DeepEqual(a.Poisson(50, 2_000), NewGenerator(models(), 11).Poisson(50, 2_000)) {
		t.Fatal("MAF consumed the generator's own RNG stream")
	}
}

// sliceSource replays a materialized arrival slice as a Source.
type sliceSource []Arrival

func (s *sliceSource) Next() (Arrival, bool) {
	if len(*s) == 0 {
		return Arrival{}, false
	}
	a := (*s)[0]
	*s = (*s)[1:]
	return a, true
}

func TestSliceSourceAndCollect(t *testing.T) {
	arr := NewGenerator(models(), 3).Poisson(50, 2_000)
	src := sliceSource(arr)
	if got := Collect(&src, 0); !reflect.DeepEqual(got, arr) {
		t.Fatal("slice source round trip differs")
	}
	src = sliceSource(arr)
	if got := Collect(&src, 5); len(got) != 5 || !reflect.DeepEqual(got, arr[:5]) {
		t.Fatal("Collect max bound broken")
	}
}

func TestCaptureSortsSnapshots(t *testing.T) {
	c := NewCapture()
	c.Record(Arrival{Time: 5, Service: 1})
	c.Record(Arrival{Time: 2, Service: 0})
	c.Record(Arrival{Time: 5, Service: 0}) // same time: recording order kept
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	snap := c.Snapshot()
	if snap[0].Time != 2 || snap[1] != (Arrival{Time: 5, Service: 1}) || snap[2] != (Arrival{Time: 5, Service: 0}) {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
}
