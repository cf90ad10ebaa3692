package gpusim

import (
	"testing"

	"abacus/internal/sim"
)

// contendedRun drives a fixed, contention-heavy workload on the device —
// two interleaved chains plus a staggered solo launch — and returns every
// completion instant in callback order. Used by the determinism and
// transparency tests, which compare the result bit-for-bit.
func contendedRun(eng *sim.Engine, d *Device) []sim.Time {
	var finishes []sim.Time
	record := func() { finishes = append(finishes, eng.Now()) }
	chainA := []KernelSpec{
		{Name: "a0", Work: 3, SMFrac: 0.9, MemFrac: 0.5},
		{Name: "a1", Work: 2, SMFrac: 0.6, MemFrac: 0.2},
		{Name: "a2", Work: 4, SMFrac: 0.8, MemFrac: 0.7},
	}
	chainB := []KernelSpec{
		{Name: "b0", Work: 1.5, SMFrac: 0.7, MemFrac: 0.9},
		{Name: "b1", Work: 2.5, SMFrac: 0.4, MemFrac: 0.1},
	}
	d.RunChain(chainA, record)
	eng.Schedule(0.7, func() { d.RunChain(chainB, record) })
	eng.Schedule(1.3, func() {
		d.Launch(KernelSpec{Name: "solo", Work: 2, SMFrac: 0.5, MemFrac: 0.6}, record)
	})
	eng.Run()
	return finishes
}

// TestAdvanceAccumulationDeterministic pins the fix for the latent
// float-order nondeterminism: advance and computeRates used to iterate a
// map, so the busyTime/smTime sums (and hence Utilization/Energy) depended
// on map iteration order. With the ordered resident slice every repetition
// must be byte-identical — exact float equality, no epsilon.
func TestAdvanceAccumulationDeterministic(t *testing.T) {
	type outcome struct {
		finishes []sim.Time
		smTime   float64
		busy     sim.Time
		util     float64
		energy   float64
	}
	var base outcome
	for run := 0; run < 5; run++ {
		eng := sim.NewEngine()
		d := New(eng, testProfile())
		got := outcome{finishes: contendedRun(eng, d)}
		got.smTime = d.SMTime()
		got.busy = d.BusyTime()
		got.util = d.Utilization()
		got.energy = d.Energy(A100Energy())
		if run == 0 {
			base = got
			continue
		}
		if len(got.finishes) != len(base.finishes) {
			t.Fatalf("run %d: %d completions, want %d", run, len(got.finishes), len(base.finishes))
		}
		for i := range got.finishes {
			if got.finishes[i] != base.finishes[i] {
				t.Errorf("run %d: completion %d at %v, want exactly %v", run, i, got.finishes[i], base.finishes[i])
			}
		}
		if got.smTime != base.smTime || got.busy != base.busy || got.util != base.util || got.energy != base.energy {
			t.Errorf("run %d: accounting (smTime=%v busy=%v util=%v energy=%v) differs from run 0 (%v %v %v %v)",
				run, got.smTime, got.busy, got.util, got.energy, base.smTime, base.busy, base.util, base.energy)
		}
	}
}

// TestDevicePoolTransparency is the device-level analogue of the engine's
// TestPoolTransparency: pool state must be invisible to the virtual clock.
// Three devices — cold pools, prewarmed pools, and pools churned by a prior
// workload — replay the same workload from the same start time and must
// agree bit-for-bit on every completion instant and accounting delta.
func TestDevicePoolTransparency(t *testing.T) {
	churnEng := sim.NewEngine()
	churned := New(churnEng, testProfile())
	contendedRun(churnEng, churned) // stock the pools with recycled objects
	if churned.PooledKernels() == 0 {
		t.Fatal("churn workload left no kernels in the pool")
	}
	start := churnEng.Now()
	churnSM, churnBusy := churned.SMTime(), churned.BusyTime()

	coldEng := sim.NewEngine()
	cold := New(coldEng, testProfile())
	warmEng := sim.NewEngine()
	warm := New(warmEng, testProfile())
	warmEng.Prewarm(256)
	warm.Prewarm(32, 8)
	// Advance the cold and prewarmed clocks to the churned device's exact
	// start time so all three replay from an identical float base.
	coldEng.Schedule(start, func() {})
	coldEng.Run()
	warmEng.Schedule(start, func() {})
	warmEng.Run()

	ref := contendedRun(coldEng, cold)
	for name, run := range map[string][]sim.Time{
		"prewarmed": contendedRun(warmEng, warm),
		"churned":   contendedRun(churnEng, churned),
	} {
		if len(run) != len(ref) {
			t.Fatalf("%s device: %d completions, want %d", name, len(run), len(ref))
		}
		for i := range run {
			if run[i] != ref[i] {
				t.Errorf("%s device diverged at completion %d: %v vs cold %v", name, i, run[i], ref[i])
			}
		}
	}
	// Accounting deltas are compared with a tiny epsilon: the churned
	// device's integrals resume from a nonzero base, so the sums differ in
	// the last ulp even though every increment is identical.
	if got, want := churned.SMTime()-churnSM, cold.SMTime(); !almostEqual(got, want, 1e-9) {
		t.Errorf("churned device accumulated %v SM-ms, cold accumulated %v", got, want)
	}
	if got, want := churned.BusyTime()-churnBusy, cold.BusyTime(); !almostEqual(got, want, 1e-9) {
		t.Errorf("churned device accumulated %v busy ms, cold accumulated %v", got, want)
	}
}

// TestDeviceReusesPooledObjects verifies the pools actually cycle: after a
// workload drains, its kernels sit in the free pool — only as many objects
// as the peak resident set, not one per completion — and a repeat workload
// allocates no new kernels or engine events.
func TestDeviceReusesPooledObjects(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	contendedRun(eng, d)
	pooled := d.PooledKernels()
	if pooled == 0 {
		t.Fatal("pool empty after workload drained")
	}
	if pooled >= 6 {
		t.Errorf("pool holds %d kernels for 6 completions; recycling should cap it at peak residency", pooled)
	}
	events := eng.AllocatedEvents()
	contendedRun(eng, d)
	if got := eng.AllocatedEvents(); got != events {
		t.Errorf("repeat workload allocated %d new events, want 0", got-events)
	}
	if got := d.PooledKernels(); got != pooled {
		t.Errorf("pool holds %d kernels after repeat, want %d (no new kernel allocations)", got, pooled)
	}
}

// TestDeviceSteadyStateZeroAllocs asserts the tentpole: once pools and
// scratch are warm, a full launch → contend → complete cycle (two
// concurrent chains) performs zero heap allocations.
func TestDeviceSteadyStateZeroAllocs(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	chainA := CheckSpecs([]KernelSpec{
		{Name: "a0", Work: 1.0, SMFrac: 0.8, MemFrac: 0.5},
		{Name: "a1", Work: 0.5, SMFrac: 0.5, MemFrac: 0.2},
	})
	chainB := CheckSpecs([]KernelSpec{
		{Name: "b0", Work: 0.7, SMFrac: 0.9, MemFrac: 0.8},
	})
	completions := 0
	countDone := func(any) { completions++ }
	cycle := func() {
		d.RunChainArg(chainA, countDone, nil)
		d.RunChainArg(chainB, countDone, nil)
		eng.Run()
	}
	for i := 0; i < 3; i++ {
		cycle() // warm pools and scratch
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state chain cycle allocated %v times per run, want 0", allocs)
	}
	if completions == 0 {
		t.Fatal("no chain completions observed")
	}
}

// TestRunChainArgEmptyCompletesSynchronously mirrors the RunChain empty-chain
// contract for the allocation-free variant.
func TestRunChainArgEmptyCompletesSynchronously(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	ran := false
	d.RunChainArg(CheckedSpecs{}, func(a any) { ran = a.(string) == "tag" }, "tag")
	if !ran {
		t.Error("empty RunChainArg did not invoke its callback synchronously")
	}
	if eng.Pending() != 0 {
		t.Errorf("empty RunChainArg left %d pending events", eng.Pending())
	}
}

// TestLaunchStallPoolsStallRecords ensures the injected-stall path also
// recycles its carrier objects instead of allocating per launch.
func TestLaunchStallPoolsStallRecords(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	d.SetLaunchStall(0.5)
	spec := KernelSpec{Name: "k", Work: 1, SMFrac: 0.5, MemFrac: 0.3}
	var finish sim.Time
	done := func() { finish = eng.Now() }
	d.Launch(spec, done)
	eng.Run()
	if want := 0.5 + 1.0; !almostEqual(finish, want, 1e-9) {
		t.Fatalf("stalled launch finished at %v, want %v", finish, want)
	}
	cycle := func() {
		d.Launch(spec, done)
		eng.Run()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("stalled launch cycle allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkDeviceOverlap drains two kernel chains contending on one device:
// launch, max-min re-rating, completion, and pooled recycling.
func BenchmarkDeviceOverlap(b *testing.B) {
	eng := sim.NewEngine()
	dev := New(eng, A100Profile())
	chainA := CheckSpecs([]KernelSpec{
		{Name: "a0", Work: 1.0, SMFrac: 0.8, MemFrac: 0.5},
		{Name: "a1", Work: 0.5, SMFrac: 0.5, MemFrac: 0.2},
		{Name: "a2", Work: 0.8, SMFrac: 0.9, MemFrac: 0.7},
	})
	chainB := CheckSpecs([]KernelSpec{
		{Name: "b0", Work: 0.7, SMFrac: 0.9, MemFrac: 0.8},
		{Name: "b1", Work: 1.2, SMFrac: 0.4, MemFrac: 0.3},
	})
	done := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.RunChainArg(chainA, done, nil)
		dev.RunChainArg(chainB, done, nil)
		eng.Run()
	}
}
