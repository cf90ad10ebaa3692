package gpusim

import (
	"runtime"
	"strings"
	"testing"

	"abacus/internal/sim"
)

// A chain that finds the device idle skips the event queue only while a
// Run/RunUntil loop is active (sim.Engine.AdvanceTo); a hand-written Step
// loop never lets it. Driving one workload both ways is therefore a
// differential test of the in-place path against the queued one, with no
// switch in the code.

// mark is one observation a workload makes: a callback firing, with the
// device state it saw.
type mark struct {
	what     string
	at       sim.Time
	launched int64
	resident int
}

// deviceOutcome is everything a workload can observe on the device.
type deviceOutcome struct {
	marks        []mark
	busy, smTime float64
	energy       float64
	launched     int64
}

// observer hands out callbacks that record a mark when they fire.
type observer struct {
	eng   *sim.Engine
	d     *Device
	marks []mark
}

func (o *observer) note(what string) func() {
	return func() {
		o.marks = append(o.marks, mark{what, o.eng.Now(), o.d.Launched(), o.d.Resident()})
	}
}

// inPlaceScenario is one workload: setup schedules its work; pause, when
// positive, makes the Run side stop there with RunUntil and then resume.
type inPlaceScenario struct {
	name  string
	setup func(eng *sim.Engine, d *Device, o *observer)
	pause sim.Time
}

// driveDevice runs the scenario on a fresh device, with eng.Run (the
// in-place path is allowed) or with a Step loop (it never is).
func driveDevice(t *testing.T, sc inPlaceScenario, run bool) deviceOutcome {
	eng := sim.NewEngine()
	eng.Run() // a Run that has returned must not let a later Step loop go in place
	d := New(eng, testProfile())
	o := &observer{eng: eng, d: d}
	sc.setup(eng, d, o)
	switch {
	case !run:
		for eng.Step() {
		}
	case sc.pause > 0:
		eng.RunUntil(sc.pause)
		if d.Resident() == 0 {
			t.Fatalf("no kernel resident at the %v pause; it must fall mid-kernel", sc.pause)
		}
		fallthrough
	default:
		eng.Run()
	}
	out := deviceOutcome{marks: o.marks}
	out.busy, out.smTime = d.BusyTime(), d.SMTime()
	out.energy = d.Energy(A100Energy())
	out.launched = d.Launched()
	return out
}

var (
	soloSpecs = []KernelSpec{
		{Name: "s0", Work: 1.25, SMFrac: 0.6, MemFrac: 0.3},
		{Name: "s1", Work: 0.3, SMFrac: 0.9, MemFrac: 0.8},
		{Name: "s2", Work: 2.1, SMFrac: 0.2, MemFrac: 0},
		{Name: "s3", Work: 0.7, SMFrac: 1, MemFrac: 1},
	}
	otherSpecs = []KernelSpec{
		{Name: "o0", Work: 0.9, SMFrac: 0.7, MemFrac: 0.9},
		{Name: "o1", Work: 1.6, SMFrac: 0.5, MemFrac: 0.1},
	}
)

// kernelInstants returns every launch and completion instant of a
// scenario's kernels, taken from a Step-driven dry run with a tracer.
func kernelInstants(sc inPlaceScenario) []sim.Time {
	eng := sim.NewEngine()
	d := New(eng, testProfile())
	var at []sim.Time
	d.SetTracer(func(e KernelEvent) { at = append(at, e.Start, e.Finish) })
	sc.setup(eng, d, &observer{eng: eng, d: d})
	for eng.Step() {
	}
	return at
}

func inPlaceScenarios() []inPlaceScenario {
	solo := func(eng *sim.Engine, d *Device, o *observer) {
		d.RunChain(soloSpecs, o.note("solo done"))
	}
	scs := []inPlaceScenario{
		{name: "solo chain", setup: solo},
		{name: "two overlapping chains", setup: func(eng *sim.Engine, d *Device, o *observer) {
			d.RunChain(soloSpecs, o.note("a done"))
			eng.Schedule(1.1, func() { d.RunChain(otherSpecs, o.note("b done")) })
			eng.Schedule(5.5, func() { d.RunChain(otherSpecs, o.note("c done")) })
		}},
		{name: "degradation mid-kernel", setup: func(eng *sim.Engine, d *Device, o *observer) {
			d.RunChain(soloSpecs, o.note("solo done"))
			eng.Schedule(0.5, func() { d.SetDegradation(0.5, 0.8) })
			eng.Schedule(2.9, func() { d.SetDegradation(1, 0.25) }) // s3 no longer fits
			eng.Schedule(6, func() { d.SetDegradation(1, 1) })
		}},
		{name: "launch-stall window", setup: func(eng *sim.Engine, d *Device, o *observer) {
			d.RunChain(soloSpecs, o.note("solo done"))
			eng.Schedule(0.6, func() { d.SetLaunchStall(0.2) })
			eng.Schedule(2.0, func() { d.SetLaunchStall(0) })
		}},
		{name: "noise on", setup: func(eng *sim.Engine, d *Device, o *observer) {
			d.EnableNoise(0.1, 42)
			d.RunChain(soloSpecs, o.note("a done"))
			eng.Schedule(3, func() { d.RunChain(otherSpecs, o.note("b done")) })
		}},
		{name: "RunUntil stops mid-chain", setup: solo, pause: 1.7},
		// A day into the run a clock ulp is ≈ 1.5e-8 ms, so a kernel can
		// reach its completion instant with residue above completionEps
		// and must re-arm instead of retiring.
		{name: "a day from time zero", setup: func(eng *sim.Engine, d *Device, o *observer) {
			eng.Schedule(86_400_000.123, func() {
				d.RunChain(soloSpecs, o.note("a done"))
				d.RunChain(otherSpecs[:1], o.note("b done"))
			})
			eng.Schedule(86_400_003.5, func() { d.RunChain(soloSpecs, o.note("c done")) })
		}},
	}
	// External events at exactly each launch and completion instant: each
	// was scheduled before the chain event it ties with, so it fires first
	// and must see the kernel not yet launched, or not yet retired.
	instants := kernelInstants(scs[0])
	scs = append(scs, inPlaceScenario{name: "external event at chain instants",
		setup: func(eng *sim.Engine, d *Device, o *observer) {
			for _, at := range instants {
				eng.ScheduleAt(at, o.note("external"))
			}
			solo(eng, d, o)
		}})
	return scs
}

// TestInPlaceMatchesQueued requires the in-place path to be invisible: every
// callback's instant and observed device state, and the busy/SM/energy
// integrals, are bit-identical between Run and a Step loop.
func TestInPlaceMatchesQueued(t *testing.T) {
	for _, sc := range inPlaceScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got, want := driveDevice(t, sc, true), driveDevice(t, sc, false)
			if len(got.marks) != len(want.marks) {
				t.Fatalf("Run observed %d callbacks, Step loop %d", len(got.marks), len(want.marks))
			}
			for i := range got.marks {
				if got.marks[i] != want.marks[i] {
					t.Errorf("callback %d: Run %+v, Step loop %+v", i, got.marks[i], want.marks[i])
				}
			}
			if got.busy != want.busy || got.smTime != want.smTime || got.energy != want.energy || got.launched != want.launched {
				t.Errorf("accounting: Run busy=%v sm=%v energy=%v launched=%d, Step loop %v %v %v %d",
					got.busy, got.smTime, got.energy, got.launched, want.busy, want.smTime, want.energy, want.launched)
			}
		})
	}
}

// TestSoloChainSkipsQueueOnlyUnderRun pins that the differential above
// compares two different paths: under Run a solo chain's callback is reached
// from the in-place loop, under a Step loop from the completion event.
func TestSoloChainSkipsQueueOnlyUnderRun(t *testing.T) {
	for _, run := range []bool{true, false} {
		eng := sim.NewEngine()
		eng.Run()
		d := New(eng, testProfile())
		inPlace := false
		d.RunChain(soloSpecs, func() { inPlace = calledFrom("(*chain).runOwned") })
		if run {
			eng.Run()
		} else {
			for eng.Step() {
			}
		}
		if inPlace != run {
			t.Errorf("run=%v: chain completed in place = %v", run, inPlace)
		}
	}
}

// calledFrom reports whether a function whose name ends in fn is on the
// caller's stack.
func calledFrom(fn string) bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, fn) {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestUncontendedRatesMatchMaxMin pins the computeRates shortcut against the
// general max-min path for resident sets that fit, that fit exactly, and
// that overflow SM or (degraded) bandwidth capacity.
func TestUncontendedRatesMatchMaxMin(t *testing.T) {
	sets := [][]KernelSpec{
		{{Work: 1, SMFrac: 0.3, MemFrac: 0.2}},
		{{Work: 1, SMFrac: 1, MemFrac: 1}},
		{{Work: 1, SMFrac: 0.3, MemFrac: 0}, {Work: 1, SMFrac: 0.7, MemFrac: 0}},
		{{Work: 1, SMFrac: 0.1, MemFrac: 0.2}, {Work: 1, SMFrac: 0.2, MemFrac: 0.3}, {Work: 1, SMFrac: 0.7, MemFrac: 0.5}},
		{{Work: 1, SMFrac: 0.6, MemFrac: 0.2}, {Work: 1, SMFrac: 0.6, MemFrac: 0.2}},
		{{Work: 1, SMFrac: 0.2, MemFrac: 0.6}, {Work: 1, SMFrac: 0.2, MemFrac: 0.6}},
	}
	for _, degrade := range [][2]float64{{1, 1}, {0.5, 1}, {1, 0.5}} {
		for i, set := range sets {
			eng := sim.NewEngine()
			d := New(eng, testProfile())
			d.SetDegradation(degrade[0], degrade[1])
			for _, s := range set {
				d.Launch(s, nil)
			}
			want := generalRates(d)
			d.computeRates()
			for j, k := range d.running {
				if k.rate != want[j] {
					t.Errorf("degradation %v, set %d, kernel %d: rate %v, max-min path %v", degrade, i, j, k.rate, want[j])
				}
			}
		}
	}
}

// generalRates is computeRates without its shortcut.
func generalRates(d *Device) []float64 {
	n := len(d.running)
	smDemand, memDemand := make([]float64, n), make([]float64, n)
	smAlloc, memAlloc := make([]float64, n), make([]float64, n)
	for i, k := range d.running {
		smDemand[i], memDemand[i] = k.spec.SMFrac, k.spec.MemFrac
	}
	maxMinSharesInto(smAlloc, smDemand, d.smCap, nil)
	maxMinSharesInto(memAlloc, memDemand, d.memCap*d.memDegrade, nil)
	rates := make([]float64, n)
	for i, k := range d.running {
		r := smAlloc[i] / k.spec.SMFrac
		if k.spec.MemFrac > 0 {
			r = min(r, memAlloc[i]/k.spec.MemFrac)
		}
		if r <= 0 {
			r = 1e-12
		}
		rates[i] = min(r, 1) * d.smDegrade
	}
	return rates
}
