package runner

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderIndependentOfParallelism(t *testing.T) {
	n := 100
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, parallel := range []int{1, 2, 4, 16, 100} {
		got := Map(n, parallel, func(i int) int { return i * i })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallel=%d: Map order broken: %v", parallel, got[:8])
		}
	}
}

func TestMapBoundedConcurrency(t *testing.T) {
	const limit = 3
	var inFlight, peak atomic.Int64
	var mu sync.Mutex
	Map(64, limit, func(i int) int {
		cur := inFlight.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		for j := 0; j < 1000; j++ {
			_ = j * j // hold the slot briefly
		}
		inFlight.Add(-1)
		return i
	})
	if p := peak.Load(); p > limit {
		t.Errorf("observed %d in-flight jobs, limit %d", p, limit)
	}
}

func TestMapPanicAttribution(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("panic not propagated")
		}
		pe, ok := v.(*PanicError)
		if !ok {
			t.Fatalf("panic value %T, want *PanicError", v)
		}
		if pe.Job != "#7" {
			t.Errorf("attributed to %q, want #7", pe.Job)
		}
		if !strings.Contains(pe.Error(), "boom 7") {
			t.Errorf("message lost the panic value: %s", pe.Error())
		}
	}()
	Map(16, 4, func(i int) int {
		if i == 7 {
			panic(fmt.Sprintf("boom %d", i))
		}
		return i
	})
}

func TestMapLowestIndexPanicWins(t *testing.T) {
	// With every job panicking, the reported job must be #0 at any width —
	// the same failure a serial loop surfaces.
	for _, parallel := range []int{1, 8} {
		func() {
			defer func() {
				pe, ok := recover().(*PanicError)
				if !ok || pe.Job != "#0" {
					t.Errorf("parallel=%d: got %v, want job #0", parallel, pe)
				}
			}()
			Map(32, parallel, func(i int) int { panic(i) })
		}()
	}
}

func TestMapErrLowestIndexErrorWins(t *testing.T) {
	sentinel := errors.New("job 3 failed")
	for _, parallel := range []int{1, 8} {
		_, err := MapErr(32, parallel, func(i int) (int, error) {
			if i >= 3 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != sentinel.Error() {
			t.Errorf("parallel=%d: err = %v, want %v", parallel, err, sentinel)
		}
	}
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("inner")
	defer func() {
		pe := recover().(*PanicError)
		if !errors.Is(pe, sentinel) {
			t.Errorf("Unwrap lost the wrapped error: %v", pe.Value)
		}
	}()
	Map(1, 1, func(i int) int { panic(sentinel) })
}

func TestPlanNamesAndOrder(t *testing.T) {
	var p Plan[string]
	for _, name := range []string{"alpha", "beta", "gamma"} {
		name := name
		p.Add(name, func() string { return "ran " + name })
	}
	if p.Len() != 3 {
		t.Fatalf("Len = %d", p.Len())
	}
	got := p.Run(2)
	want := []string{"ran alpha", "ran beta", "ran gamma"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Plan results %v, want %v", got, want)
	}
}

func TestPlanPanicUsesJobName(t *testing.T) {
	var p Plan[int]
	p.Add("fine", func() int { return 1 })
	p.Add("fig14/(Res50,Res152)", func() int { panic("bad pair") })
	defer func() {
		pe := recover().(*PanicError)
		if pe.Job != "fig14/(Res50,Res152)" {
			t.Errorf("attributed to %q", pe.Job)
		}
	}()
	p.Run(4)
}

func TestDefaultParallelKnob(t *testing.T) {
	old := DefaultParallel()
	defer SetDefaultParallel(0)
	SetDefaultParallel(5)
	if DefaultParallel() != 5 {
		t.Errorf("DefaultParallel = %d, want 5", DefaultParallel())
	}
	SetDefaultParallel(0)
	if DefaultParallel() < 1 {
		t.Errorf("GOMAXPROCS default %d < 1", DefaultParallel())
	}
	_ = old
}

func TestZeroJobs(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); len(got) != 0 {
		t.Errorf("Map(0) = %v", got)
	}
	ForEach(0, 4, func(i int) { t.Error("job ran") })
}
