package gpusim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"abacus/internal/sim"
)

func testProfile() Profile {
	p := A100Profile()
	p.LaunchGap = 0.01
	return p
}

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSoloKernelRunsAtFullRate(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	var finish sim.Time
	d.Launch(KernelSpec{Name: "k", Work: 5, SMFrac: 0.5, MemFrac: 0.5}, func() { finish = eng.Now() })
	eng.Run()
	if !almostEqual(finish, 5, 1e-9) {
		t.Errorf("solo kernel finished at %v, want 5 (Work is the solo duration regardless of SMFrac)", finish)
	}
}

func TestTwoSmallKernelsOverlapFreely(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	var f1, f2 sim.Time
	d.Launch(KernelSpec{Name: "a", Work: 4, SMFrac: 0.3, MemFrac: 0.2}, func() { f1 = eng.Now() })
	d.Launch(KernelSpec{Name: "b", Work: 4, SMFrac: 0.3, MemFrac: 0.2}, func() { f2 = eng.Now() })
	eng.Run()
	if !almostEqual(f1, 4, 1e-9) || !almostEqual(f2, 4, 1e-9) {
		t.Errorf("under-subscribed kernels finished at %v, %v; want both at 4", f1, f2)
	}
}

func TestTwoSaturatingKernelsTimeShare(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	var f1, f2 sim.Time
	d.Launch(KernelSpec{Name: "a", Work: 4, SMFrac: 1, MemFrac: 0}, func() { f1 = eng.Now() })
	d.Launch(KernelSpec{Name: "b", Work: 4, SMFrac: 1, MemFrac: 0}, func() { f2 = eng.Now() })
	eng.Run()
	if !almostEqual(f1, 8, 1e-9) || !almostEqual(f2, 8, 1e-9) {
		t.Errorf("saturating kernels finished at %v, %v; want both at 8 (fair halving)", f1, f2)
	}
}

func TestAsymmetricContention(t *testing.T) {
	// Small kernel (0.2) + big kernel (1.0): max-min gives small its full
	// demand; big gets 0.8 → runs at 0.8 rate.
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	var fSmall, fBig sim.Time
	d.Launch(KernelSpec{Name: "small", Work: 2, SMFrac: 0.2}, func() { fSmall = eng.Now() })
	d.Launch(KernelSpec{Name: "big", Work: 4, SMFrac: 1.0}, func() { fBig = eng.Now() })
	eng.Run()
	if !almostEqual(fSmall, 2, 1e-9) {
		t.Errorf("small kernel finished at %v, want 2 (unaffected)", fSmall)
	}
	// Big: 2 ms at rate 0.8 (progress 1.6), then alone at rate 1 for 2.4 ms.
	if !almostEqual(fBig, 4.4, 1e-9) {
		t.Errorf("big kernel finished at %v, want 4.4", fBig)
	}
}

func TestMemoryBandwidthContention(t *testing.T) {
	// Two kernels that fit on SMs but jointly oversubscribe bandwidth.
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	var f1 sim.Time
	d.Launch(KernelSpec{Name: "a", Work: 3, SMFrac: 0.3, MemFrac: 0.8}, func() { f1 = eng.Now() })
	d.Launch(KernelSpec{Name: "b", Work: 3, SMFrac: 0.3, MemFrac: 0.8}, nil)
	eng.Run()
	// Each gets 0.5 bandwidth → rate 0.5/0.8 = 0.625 → finish at 4.8.
	if !almostEqual(f1, 4.8, 1e-9) {
		t.Errorf("bandwidth-contended kernel finished at %v, want 4.8", f1)
	}
}

func TestStaggeredLaunchIntegratesProgress(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	var fa, fb sim.Time
	d.Launch(KernelSpec{Name: "a", Work: 4, SMFrac: 1}, func() { fa = eng.Now() })
	eng.Schedule(2, func() {
		d.Launch(KernelSpec{Name: "b", Work: 4, SMFrac: 1}, func() { fb = eng.Now() })
	})
	eng.Run()
	// a: 2 ms solo (progress 2), then shares: 2 ms remaining at 0.5 → +4 → 6.
	if !almostEqual(fa, 6, 1e-9) {
		t.Errorf("a finished at %v, want 6", fa)
	}
	// b: progress 2 by t=6 (rate .5 over [2,6]), then solo for its last 2 → 8.
	if !almostEqual(fb, 8, 1e-9) {
		t.Errorf("b finished at %v, want 8", fb)
	}
}

func TestRunChainSequential(t *testing.T) {
	p := testProfile()
	eng := sim.NewEngine()
	d := New(eng, p)
	var finish sim.Time
	specs := []KernelSpec{
		{Name: "k0", Work: 1, SMFrac: 0.5},
		{Name: "k1", Work: 2, SMFrac: 0.5},
		{Name: "k2", Work: 3, SMFrac: 0.5},
	}
	d.RunChain(specs, func() { finish = eng.Now() })
	eng.Run()
	want := 1 + 2 + 3 + 3*p.LaunchGap
	if !almostEqual(finish, want, 1e-9) {
		t.Errorf("chain finished at %v, want %v", finish, want)
	}
}

func TestRunChainEmptyCompletesImmediately(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	done := false
	d.RunChain(nil, func() { done = true })
	if !done {
		t.Error("empty chain should complete synchronously")
	}
}

func TestRunChainNilDone(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	d.RunChain([]KernelSpec{{Name: "k", Work: 1, SMFrac: 1}}, nil)
	eng.Run() // must not panic
}

func TestLaunchGapLeavesDeviceIdleForCoRunner(t *testing.T) {
	// A chain of tiny kernels has launch-gap bubbles; a concurrent chain
	// fills them, so the pair's makespan is far below the sequential sum.
	p := testProfile()
	p.LaunchGap = 0.5 // exaggerate
	mk := func(n int) []KernelSpec {
		specs := make([]KernelSpec, n)
		for i := range specs {
			specs[i] = KernelSpec{Name: "t", Work: 0.5, SMFrac: 1}
		}
		return specs
	}
	solo := func() float64 {
		eng := sim.NewEngine()
		d := New(eng, p)
		var f sim.Time
		d.RunChain(mk(10), func() { f = eng.Now() })
		eng.Run()
		return f
	}()
	pairMakespan := func() float64 {
		eng := sim.NewEngine()
		d := New(eng, p)
		var last sim.Time
		n := 2
		done := func() {
			n--
			if n == 0 {
				last = eng.Now()
			}
		}
		d.RunChain(mk(10), done)
		d.RunChain(mk(10), done)
		eng.Run()
		return last
	}()
	if !almostEqual(solo, 10, 1e-9) { // 10 × (0.5 work + 0.5 gap)
		t.Fatalf("solo chain = %v, want 10", solo)
	}
	if pairMakespan >= 2*solo-1 {
		t.Errorf("pair makespan %v shows no gap-filling benefit vs sequential %v", pairMakespan, 2*solo)
	}
}

func TestInvalidSpecPanics(t *testing.T) {
	bad := []KernelSpec{
		{Name: "zero-work", Work: 0, SMFrac: 0.5},
		{Name: "neg-work", Work: -1, SMFrac: 0.5},
		{Name: "nan-work", Work: math.NaN(), SMFrac: 0.5},
		{Name: "inf-work", Work: math.Inf(1), SMFrac: 0.5},
		{Name: "zero-sm", Work: 1, SMFrac: 0},
		{Name: "big-sm", Work: 1, SMFrac: 1.5},
		{Name: "neg-mem", Work: 1, SMFrac: 0.5, MemFrac: -0.1},
		{Name: "big-mem", Work: 1, SMFrac: 0.5, MemFrac: 1.5},
	}
	for _, spec := range bad {
		t.Run(spec.Name, func(t *testing.T) {
			if err := spec.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
			eng := sim.NewEngine()
			d := New(eng, testProfile())
			defer func() {
				if recover() == nil {
					t.Error("Launch did not panic")
				}
			}()
			d.Launch(spec, nil)
		})
	}
}

func TestPartitionCapacities(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	half := d.Partition(0.5, 0.5)
	if half.SMCapacity() != 0.5 || half.MemCapacity() != 0.5 {
		t.Errorf("partition capacity = (%v, %v), want (0.5, 0.5)", half.SMCapacity(), half.MemCapacity())
	}
	quarter := half.Partition(0.5, 0.5)
	if quarter.SMCapacity() != 0.25 {
		t.Errorf("nested partition SM capacity = %v, want 0.25", quarter.SMCapacity())
	}
}

func TestPartitionSlowsSaturatingKernel(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile()).Partition(0.5, 0.5)
	var f sim.Time
	d.Launch(KernelSpec{Name: "k", Work: 2, SMFrac: 1, MemFrac: 0}, func() { f = eng.Now() })
	eng.Run()
	if !almostEqual(f, 4, 1e-9) {
		t.Errorf("saturating kernel on half device finished at %v, want 4", f)
	}
}

func TestPartitionDoesNotSlowTinyKernel(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile()).Partition(0.5, 0.5)
	var f sim.Time
	d.Launch(KernelSpec{Name: "k", Work: 2, SMFrac: 0.25, MemFrac: 0.1}, func() { f = eng.Now() })
	eng.Run()
	if !almostEqual(f, 2, 1e-9) {
		t.Errorf("small kernel on half device finished at %v, want 2", f)
	}
}

func TestPartitionsAreIsolated(t *testing.T) {
	eng := sim.NewEngine()
	parent := New(eng, testProfile())
	a := parent.Partition(0.5, 0.5)
	b := parent.Partition(0.5, 0.5)
	var fa, fb sim.Time
	a.Launch(KernelSpec{Name: "a", Work: 2, SMFrac: 1}, func() { fa = eng.Now() })
	b.Launch(KernelSpec{Name: "b", Work: 2, SMFrac: 1}, func() { fb = eng.Now() })
	eng.Run()
	// Each saturates its own half (rate 0.5) with no cross-interference.
	if !almostEqual(fa, 4, 1e-9) || !almostEqual(fb, 4, 1e-9) {
		t.Errorf("isolated partitions finished at %v, %v; want 4, 4", fa, fb)
	}
}

func TestInvalidPartitionPanics(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	for _, frac := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Partition(%v) did not panic", frac)
				}
			}()
			d.Partition(frac, 0.5)
		}()
	}
}

func TestNoiseReproducibleAndBounded(t *testing.T) {
	run := func(seed int64) float64 {
		eng := sim.NewEngine()
		d := New(eng, testProfile())
		d.EnableNoise(0.01, seed)
		var f sim.Time
		d.RunChain([]KernelSpec{{Name: "a", Work: 5, SMFrac: 1}, {Name: "b", Work: 5, SMFrac: 1}}, func() { f = eng.Now() })
		eng.Run()
		return f
	}
	if run(7) != run(7) {
		t.Error("same seed produced different latencies")
	}
	if run(7) == run(8) {
		t.Error("different seeds produced identical noise (suspicious)")
	}
	base := 10 + 2*testProfile().LaunchGap
	if got := run(7); math.Abs(got-base)/base > 0.1 {
		t.Errorf("noisy latency %v deviates more than 10%% from base %v", got, base)
	}
}

func TestEnableNoiseZeroDisables(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	d.EnableNoise(0.05, 1)
	d.EnableNoise(0, 0)
	var f sim.Time
	d.Launch(KernelSpec{Name: "k", Work: 3, SMFrac: 1}, func() { f = eng.Now() })
	eng.Run()
	if !almostEqual(f, 3, 1e-12) {
		t.Errorf("noise not disabled: finish %v, want 3", f)
	}
}

func TestNegativeNoisePanics(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	defer func() {
		if recover() == nil {
			t.Error("did not panic")
		}
	}()
	d.EnableNoise(-0.1, 0)
}

func TestAccountingCounters(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	d.Launch(KernelSpec{Name: "a", Work: 2, SMFrac: 0.5}, nil)
	d.Launch(KernelSpec{Name: "b", Work: 2, SMFrac: 0.5}, nil)
	eng.Run()
	if d.Launched() != 2 {
		t.Errorf("Launched = %d, want 2", d.Launched())
	}
	if d.Resident() != 0 {
		t.Errorf("Resident = %d, want 0 after completion", d.Resident())
	}
	if !almostEqual(d.BusyTime(), 2, 1e-9) {
		t.Errorf("BusyTime = %v, want 2", d.BusyTime())
	}
	// Two kernels at SMFrac .5, rate 1, for 2 ms → 2.0 SM-ms.
	if !almostEqual(d.SMTime(), 2, 1e-9) {
		t.Errorf("SMTime = %v, want 2", d.SMTime())
	}
	if !almostEqual(d.Utilization(), 1, 1e-9) {
		t.Errorf("Utilization = %v, want 1", d.Utilization())
	}
}

func TestMaxMinShares(t *testing.T) {
	cases := []struct {
		name     string
		demands  []float64
		capacity float64
		want     []float64
	}{
		{"undersubscribed", []float64{0.2, 0.3}, 1, []float64{0.2, 0.3}},
		{"exact", []float64{0.5, 0.5}, 1, []float64{0.5, 0.5}},
		{"equal-split", []float64{1, 1}, 1, []float64{0.5, 0.5}},
		{"small-protected", []float64{0.2, 1}, 1, []float64{0.2, 0.8}},
		{"three-way", []float64{0.1, 0.5, 1}, 1, []float64{0.1, 0.45, 0.45}},
		{"zero-demand", []float64{0, 1, 1}, 1, []float64{0, 0.5, 0.5}},
		{"empty", nil, 1, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := make([]float64, len(c.demands))
			maxMinSharesInto(got, c.demands, c.capacity, nil)
			if len(got) != len(c.want) {
				t.Fatalf("len = %d, want %d", len(got), len(c.want))
			}
			for i := range c.want {
				if !almostEqual(got[i], c.want[i], 1e-12) {
					t.Errorf("share[%d] = %v, want %v (all: %v)", i, got[i], c.want[i], got)
				}
			}
		})
	}
}

// Property: max-min shares never exceed demand, never exceed capacity in
// total, and are work-conserving when oversubscribed.
func TestMaxMinSharesProperties(t *testing.T) {
	f := func(raw []uint8, capRaw uint8) bool {
		demands := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			demands[i] = float64(r) / 255
			total += demands[i]
		}
		capacity := float64(capRaw)/255 + 0.01
		alloc := make([]float64, len(demands))
		maxMinSharesInto(alloc, demands, capacity, nil)
		var sum float64
		for i := range alloc {
			if alloc[i] > demands[i]+1e-12 || alloc[i] < 0 {
				return false
			}
			sum += alloc[i]
		}
		if sum > capacity+1e-9 {
			return false
		}
		if total > capacity && !almostEqual(sum, capacity, 1e-9) {
			return false // oversubscribed must be work-conserving
		}
		if total <= capacity && !almostEqual(sum, total, 1e-9) {
			return false // undersubscribed grants all demands
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: total completed work is conserved — the sum of kernel Works
// equals the integral of progress regardless of overlap pattern, i.e. every
// kernel eventually finishes and the device drains.
func TestWorkConservationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		d := New(eng, testProfile())
		count := int(n%20) + 1
		finished := 0
		for i := 0; i < count; i++ {
			spec := KernelSpec{
				Name:    "k",
				Work:    rng.Float64()*5 + 0.01,
				SMFrac:  rng.Float64()*0.99 + 0.01,
				MemFrac: rng.Float64(),
			}
			delay := rng.Float64() * 3
			eng.Schedule(delay, func() { d.Launch(spec, func() { finished++ }) })
		}
		eng.Run()
		return finished == count && d.Resident() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: adding a co-running kernel never makes another kernel finish
// earlier (interference monotonicity).
func TestInterferenceMonotonicityProperty(t *testing.T) {
	f := func(w1, s1, m1, w2, s2, m2 uint8) bool {
		mk := func(w, s, m uint8) KernelSpec {
			return KernelSpec{
				Name:    "k",
				Work:    float64(w)/32 + 0.1,
				SMFrac:  float64(s)/260 + 0.01,
				MemFrac: float64(m) / 260,
			}
		}
		a, b := mk(w1, s1, m1), mk(w2, s2, m2)
		solo := func() float64 {
			eng := sim.NewEngine()
			d := New(eng, testProfile())
			var f sim.Time
			d.Launch(a, func() { f = eng.Now() })
			eng.Run()
			return f
		}()
		withB := func() float64 {
			eng := sim.NewEngine()
			d := New(eng, testProfile())
			var f sim.Time
			d.Launch(a, func() { f = eng.Now() })
			d.Launch(b, nil)
			eng.Run()
			return f
		}()
		return withB >= solo-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEnergyAccounting(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	d.Launch(KernelSpec{Name: "k", Work: 1000, SMFrac: 0.5}, nil) // 1 simulated second
	eng.Run()
	em := EnergyModel{IdleWatts: 100, DynamicWatts: 200}
	// 1 s idle floor + 0.5 SM-seconds dynamic → 100 + 100 = 200 J.
	if got := d.Energy(em); !almostEqual(got, 200, 1e-6) {
		t.Errorf("Energy = %v, want 200", got)
	}
}

func TestEnergyIdleOnly(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	eng.RunUntil(2000)
	em := A100Energy()
	if got, want := d.Energy(em), em.IdleWatts*2; !almostEqual(got, want, 1e-6) {
		t.Errorf("idle energy = %v, want %v", got, want)
	}
}

func TestV100ProfileShape(t *testing.T) {
	v, a := V100Profile(), A100Profile()
	if v.FLOPsPerMS >= a.FLOPsPerMS || v.BytesPerMS >= a.BytesPerMS || v.NumSMs >= a.NumSMs {
		t.Errorf("V100 %+v should be strictly weaker than A100 %+v", v, a)
	}
}

func TestTracerRecordsLifecycles(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	events := d.CollectTrace()
	d.Launch(KernelSpec{Name: "a", Work: 2, SMFrac: 1}, nil)
	eng.Schedule(1, func() { d.Launch(KernelSpec{Name: "b", Work: 1, SMFrac: 1}, nil) })
	eng.Run()
	if len(*events) != 2 {
		t.Fatalf("traced %d events, want 2", len(*events))
	}
	for _, e := range *events {
		if e.Finish <= e.Start {
			t.Fatalf("event %+v has non-positive duration", e)
		}
	}
	// a: starts 0; b: starts 1; both share from t=1.
	overlap := OverlapTime(*events, 2)
	if !almostEqual(overlap, (*events)[0].Finish-1, 1e-9) && !almostEqual(overlap, (*events)[1].Finish-1, 1e-9) {
		// The earlier finisher bounds the overlap window.
		first := (*events)[0].Finish
		if (*events)[1].Finish < first {
			first = (*events)[1].Finish
		}
		if !almostEqual(overlap, first-1, 1e-9) {
			t.Errorf("overlap %v, want %v", overlap, first-1)
		}
	}
}

func TestOverlapTimeSequentialIsZero(t *testing.T) {
	events := []KernelEvent{
		{Name: "a", Start: 0, Finish: 2},
		{Name: "b", Start: 2, Finish: 5},
	}
	if got := OverlapTime(events, 2); got != 0 {
		t.Errorf("sequential overlap = %v, want 0", got)
	}
}

func TestOverlapTimeNested(t *testing.T) {
	events := []KernelEvent{
		{Name: "a", Start: 0, Finish: 10},
		{Name: "b", Start: 2, Finish: 6},
		{Name: "c", Start: 3, Finish: 5},
	}
	if got := OverlapTime(events, 2); !almostEqual(got, 4, 1e-12) {
		t.Errorf("2-deep overlap = %v, want 4", got)
	}
	if got := OverlapTime(events, 3); !almostEqual(got, 2, 1e-12) {
		t.Errorf("3-deep overlap = %v, want 2", got)
	}
}

func TestDegradationThrottlesAllKernels(t *testing.T) {
	// A 50% clock cut halves every resident kernel's rate, including ones
	// far below the SM capacity, and restoring mid-flight preserves the
	// progress already made.
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	var finish sim.Time
	d.Launch(KernelSpec{Name: "k", Work: 4, SMFrac: 0.2, MemFrac: 0.1}, func() { finish = eng.Now() })
	d.SetDegradation(0.5, 1)
	eng.Schedule(4, func() { d.SetDegradation(1, 1) }) // 2 ms of work done by then
	eng.Run()
	// 4 ms at rate 0.5 (2 ms progress), then 2 ms at full rate.
	if !almostEqual(finish, 6, 1e-9) {
		t.Errorf("throttled kernel finished at %v, want 6", finish)
	}
	if sm, mem := d.Degradation(); sm != 1 || mem != 1 {
		t.Errorf("degradation not restored: (%v, %v)", sm, mem)
	}
}

func TestMemDegradationOnlyHurtsBandwidthBoundKernels(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	d.SetDegradation(1, 0.5)
	var fCompute, fMem sim.Time
	d.Launch(KernelSpec{Name: "compute", Work: 3, SMFrac: 0.3, MemFrac: 0.1}, func() { fCompute = eng.Now() })
	d.Launch(KernelSpec{Name: "mem", Work: 3, SMFrac: 0.3, MemFrac: 0.8}, func() { fMem = eng.Now() })
	eng.Run()
	if !almostEqual(fCompute, 3, 1e-9) {
		t.Errorf("compute-bound kernel finished at %v under mem degrade, want 3 (unaffected)", fCompute)
	}
	// mem kernel: demand 0.8 against residual capacity 0.5-0.1=0.4 → rate
	// 0.5 while sharing (1.5 done by t=3), then alone at 0.5/0.8 = 0.625
	// (remaining 1.5 takes 2.4 ms) → finish 5.4.
	if !almostEqual(fMem, 5.4, 1e-9) {
		t.Errorf("bandwidth-bound kernel finished at %v under 0.5 mem degrade, want 5.4", fMem)
	}
}

func TestLaunchStallDefersExecution(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	d.SetLaunchStall(1.5)
	var finish sim.Time
	d.Launch(KernelSpec{Name: "k", Work: 2, SMFrac: 0.5}, func() { finish = eng.Now() })
	d.SetLaunchStall(0) // the stall in force at Launch time is still paid
	eng.Run()
	if !almostEqual(finish, 3.5, 1e-9) {
		t.Errorf("stalled kernel finished at %v, want 3.5 (1.5 stall + 2 work)", finish)
	}
	if d.LaunchStall() != 0 {
		t.Errorf("LaunchStall = %v after reset, want 0", d.LaunchStall())
	}
}

func TestDegradationValidation(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	for _, bad := range [][2]float64{{0, 1}, {1, 0}, {1.5, 1}, {1, -0.2}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetDegradation(%v, %v) did not panic", bad[0], bad[1])
				}
			}()
			d.SetDegradation(bad[0], bad[1])
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetLaunchStall(-1) did not panic")
			}
		}()
		d.SetLaunchStall(-1)
	}()
}

// TestResidueBelowClockUlpCompletes pins the fix for a livelock a day into a
// run: this chain's third kernel reaches its completion instant with
// ≈ 3e-9 ms of residue, above completionEps but below half a clock ulp, so
// the re-armed completion fired at the same instant forever. The step cap
// turns a regression into a failure instead of a hang.
func TestResidueBelowClockUlpCompletes(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	specs := []KernelSpec{
		{Name: "s0", Work: 1.25, SMFrac: 0.6, MemFrac: 0.3},
		{Name: "s1", Work: 0.3, SMFrac: 0.9, MemFrac: 0.8},
		{Name: "s2", Work: 2.1, SMFrac: 0.2, MemFrac: 0},
	}
	done := false
	eng.Schedule(86_400_000.123, func() { d.RunChain(specs, func() { done = true }) })
	for steps := 0; eng.Step(); steps++ {
		if steps > 100 {
			t.Fatalf("still stepping at %v with %d kernel(s) resident", eng.Now(), d.Resident())
		}
	}
	if !done {
		t.Fatal("chain never completed")
	}
}
