package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{2, 4}, 3},
		{"negatives", []float64{-1, 1, -3, 3}, 0},
		{"fractions", []float64{0.5, 1.5, 2.5}, 1.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 0},
		{"constant", []float64{2, 2, 2, 2}, 0},
		{"simple", []float64{1, 3}, 1},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := StdDev(c.in); !almostEqual(got, c.want, 1e-12) {
				t.Errorf("StdDev(%v) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 4, 1.5, 9, -2.6}
	if got := Min(xs); got != -2.6 {
		t.Errorf("Min = %v, want -2.6", got)
	}
	if got := Max(xs); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
}

func TestMinMaxPanicOnEmpty(t *testing.T) {
	for name, fn := range map[string]func([]float64) float64{"Min": Min, "Max": Max} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) did not panic", name)
				}
			}()
			fn(nil)
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{25, 20},
		{50, 35},
		{75, 40},
		{100, 50},
		{90, 46}, // interpolated: rank 3.6 between 40 and 50
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileSingleElement(t *testing.T) {
	for _, p := range []float64{0, 50, 99, 100} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Errorf("Percentile([7], %v) = %v, want 7", p, got)
		}
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestPercentilePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"empty", func() { Percentile(nil, 50) }},
		{"negative-p", func() { Percentile([]float64{1}, -1) }},
		{"over-100", func() { Percentile([]float64{1}, 101) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("did not panic")
				}
			}()
			c.fn()
		})
	}
}

func TestPercentilesMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	ps := []float64{0, 10, 50, 90, 99, 100}
	got := Percentiles(xs, ps...)
	for i, p := range ps {
		if want := Percentile(xs, p); got[i] != want {
			t.Errorf("Percentiles[%v] = %v, want %v", p, got[i], want)
		}
	}
}

// Property: percentile is monotone in p and bounded by [min, max].
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			xs[i] = v
		}
		a := float64(p1) / 255 * 100
		b := float64(p2) / 255 * 100
		if a > b {
			a, b = b, a
		}
		va, vb := Percentile(xs, a), Percentile(xs, b)
		return va <= vb+1e-9 && va >= Min(xs)-1e-9 && vb <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMAPE(t *testing.T) {
	cases := []struct {
		name      string
		pred, act []float64
		want      float64
	}{
		{"perfect", []float64{1, 2, 3}, []float64{1, 2, 3}, 0},
		{"ten-percent", []float64{1.1, 2.2}, []float64{1, 2}, 0.1},
		{"skips-zero-actual", []float64{5, 1.1}, []float64{0, 1}, 0.1},
		{"empty", nil, nil, 0},
		{"all-zero-actual", []float64{1}, []float64{0}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := MAPE(c.pred, c.act); !almostEqual(got, c.want, 1e-9) {
				t.Errorf("MAPE = %v, want %v", got, c.want)
			}
		})
	}
}

func TestMAPELengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	MAPE([]float64{1}, []float64{1, 2})
}

// Property: Mean is bounded by [Min, Max] and sorting does not change it.
func TestMeanProperties(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return m >= Min(xs)-1e-6 && m <= Max(xs)+1e-6 && almostEqual(m, Mean(sorted), 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
