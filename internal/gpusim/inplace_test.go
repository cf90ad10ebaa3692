package gpusim

import (
	"fmt"
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

// deviceOutcome is everything a workload can observe on the device, and
// the panic that stopped it, if any.
type deviceOutcome struct {
	marks        []mark
	busy, smTime float64
	energy       float64
	launched     int64
	panicked     string

	idleAtPause bool // the Run side found nothing resident at its pause
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

// inPlaceScenario is one workload: setup schedules its work on a full
// device, or on a Partition when partition is set; pause, when positive,
// makes the Run side stop there with RunUntil and then resume.
type inPlaceScenario struct {
	name      string
	setup     func(eng *sim.Engine, d *Device, o *observer)
	partition [2]float64
	pause     sim.Time
}

// device returns the scenario's fresh device on eng.
func (sc inPlaceScenario) device(eng *sim.Engine) *Device {
	d := New(eng, testProfile())
	if sc.partition != [2]float64{} {
		d = d.Partition(sc.partition[0], sc.partition[1])
	}
	return d
}

// driveDevice runs the scenario on a fresh device, with eng.Run (the
// in-place path is allowed) or with a Step loop (it never is). A panic, such
// as a launch's range check failing, ends the run and is recorded.
func driveDevice(sc inPlaceScenario, run bool) (out deviceOutcome) {
	eng := sim.NewEngine()
	eng.Run() // a Run that has returned must not let a later Step loop go in place
	d := sc.device(eng)
	o := &observer{eng: eng, d: d}
	defer func() {
		if r := recover(); r != nil {
			out.panicked = fmt.Sprint(r)
		}
		out.marks = o.marks
		out.busy, out.smTime = d.BusyTime(), d.SMTime()
		out.energy = d.Energy(A100Energy())
		out.launched = d.Launched()
	}()
	sc.setup(eng, d, o)
	switch {
	case !run:
		for eng.Step() {
		}
		if sc.pause > eng.Now() {
			eng.RunUntil(sc.pause) // the clock the Run side's pause leaves; nothing is queued
		}
	case sc.pause > 0:
		eng.RunUntil(sc.pause)
		out.idleAtPause = d.Resident() == 0
		fallthrough
	default:
		eng.Run()
	}
	return out
}

// requireSameOutcome fails unless the Run side observed exactly what the
// Step loop did.
func requireSameOutcome(t *testing.T, got, want deviceOutcome) {
	t.Helper()
	if got.panicked != want.panicked {
		t.Errorf("panic: Run %q, Step loop %q", got.panicked, want.panicked)
	}
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
// scenario's kernels, taken from a Step-driven dry run with a tracer. A
// panic ends the dry run; the instants before it are returned.
func kernelInstants(sc inPlaceScenario) (at []sim.Time) {
	eng := sim.NewEngine()
	d := sc.device(eng)
	d.SetTracer(func(e KernelEvent) { at = append(at, e.Start, e.Finish) })
	defer func() { recover() }()
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
		// Half the SMs and half the bandwidth: s0 overflows the SM share,
		// s1 and s3 both capacities, so a lone kernel's rate takes the
		// max-min branch rather than the uncontended shortcut.
		{name: "partition", setup: solo, partition: [2]float64{0.5, 0.5}},
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
		{name: "solo chain a day from time zero", setup: func(eng *sim.Engine, d *Device, o *observer) {
			eng.Schedule(86_400_000.123, func() { solo(eng, d, o) })
		}},
		// A lone kernel's completion instant rounds down by just over half a
		// clock ulp, so it arrives short of its work by more than
		// completionEps and more than the clock can show: this Work was
		// searched for at rate 0.9 and this launch instant.
		{name: "lone kernel re-armed a day in", setup: func(eng *sim.Engine, d *Device, o *observer) {
			d.SetDegradation(0.9, 1)
			eng.Schedule(86_400_000.123, func() {
				d.RunChain([]KernelSpec{{Name: "r0", Work: 1.1188111446797848, SMFrac: 0.5, MemFrac: 0.2}, soloSpecs[2]}, o.note("done"))
			})
		}},
	}
	// External events at exactly each launch and completion instant: each
	// was scheduled before the chain event it ties with, so it fires first
	// and must see the kernel not yet launched, or not yet retired.
	instants := kernelInstants(scs[0])
	// Events at the launch instants alone let each kernel complete in place
	// and stop the loop at its launch gap instead.
	external := func(instants []sim.Time) func(eng *sim.Engine, d *Device, o *observer) {
		return func(eng *sim.Engine, d *Device, o *observer) {
			for _, at := range instants {
				eng.ScheduleAt(at, o.note("external"))
			}
			solo(eng, d, o)
		}
	}
	launches := make([]sim.Time, 0, len(instants)/2)
	for i := 0; i < len(instants); i += 2 {
		launches = append(launches, instants[i])
	}
	return append(scs,
		inPlaceScenario{name: "external event at chain instants", setup: external(instants)},
		inPlaceScenario{name: "external event at launch instants", setup: external(launches)})
}

// TestInPlaceMatchesQueued requires the in-place path to be invisible: every
// callback's instant and observed device state, and the busy/SM/energy
// integrals, are bit-identical between Run and a Step loop.
func TestInPlaceMatchesQueued(t *testing.T) {
	for _, sc := range inPlaceScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got, want := driveDevice(sc, true), driveDevice(sc, false)
			if want.panicked != "" {
				t.Fatalf("scenario panicked: %s", want.panicked)
			}
			if got.idleAtPause {
				t.Fatalf("no kernel resident at the %v pause; it must fall mid-kernel", sc.pause)
			}
			requireSameOutcome(t, got, want)
		})
	}
}

// FuzzInPlaceMatchesQueued is TestInPlaceMatchesQueued over workloads the
// fuzzer builds (see fuzzScenario): Run and a Step loop must observe the
// same callbacks, device state, integrals and panic, bit for bit.
func FuzzInPlaceMatchesQueued(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x07, 0, 0, 3, 0, 8, 5, 2, 2, 4, 6, 1, 6, 6, 3, 1})                         // four chains on a partition, noise, a day in
	f.Add([]byte{0x30, 1, 1, 3, 20, 1, 2, 3, 1, 1, 5, 3, 7, 1, 7, 0, 2, 1, 40, 0, 60, 3, 2}) // two chains, degradation and stall windows
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 31, 1})                                       // the second kernel of a solo chain has Work 0
	f.Add([]byte{0xc8, 2, 5, 50, 7, 0, 6, 1, 5, 5, 2, 2, 3, 0, 4, 4, 10, 30, 2, 1, 5, 0, 5, 1, 5, 2, 5, 3, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := fuzzScenario(data)
		requireSameOutcome(t, driveDevice(sc, true), driveDevice(sc, false))
	})
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// pick returns the next byte's choice among vals.
func pick[T any](b *fuzzBytes, vals ...T) T { return vals[b.next()%len(vals)] }

// fuzzScenario decodes a workload from data: 1–4 chains of 1–8 kernels whose
// Work, SMFrac and MemFrac range over 0 (a failing range check), tiny values
// and 1; a full device or a partition; noise; degradation and launch-stall
// windows; chains started at set times or by the previous chain's
// completion; external events, half of them at exact kernel instants; an
// optional RunUntil pause; and all of it optionally a day from time zero.
func fuzzScenario(data []byte) inPlaceScenario {
	b := fuzzBytes(data)
	flags := b.next()
	var sc inPlaceScenario
	if flags&1 != 0 {
		sc.partition = [2]float64{pick(&b, 0.5, 0.25, 1.0/7, 1), pick(&b, 0.5, 0.25, 1.0/7, 1)}
	}
	noise := flags&2 != 0
	var base sim.Time
	if flags&4 != 0 {
		base = 86_400_000.123
	}
	at := func() sim.Time { return base + sim.Time(b.next())*0.05 }

	type chainPlan struct {
		specs   []KernelSpec
		at      sim.Time
		follows bool // started by the previous chain's completion
	}
	chains := make([]chainPlan, 1+b.next()%4)
	for i := range chains {
		ch := &chains[i]
		ch.specs = make([]KernelSpec, 1+b.next()%8)
		for j := range ch.specs {
			ch.specs[j] = KernelSpec{
				Name:    fmt.Sprintf("c%dk%d", i, j),
				Work:    pick(&b, 1, 0.25, 1.25, 2.1, 0.001, 1e-9, 1e-300, 0.7),
				SMFrac:  pick(&b, 1, 0.2, 0.5, 0.6, 0.9, 1e-9, 0.05, 0.35),
				MemFrac: pick(&b, 0, 1, 0.1, 0.3, 0.5, 0.8, 1e-9, 0.6),
			}
		}
		ch.follows = i > 0 && b.next()%4 == 3
		ch.at = at()
	}
	// A rare poisoned kernel fails its launch's range check.
	if p := b.next(); p%16 == 15 {
		ch := chains[p/16%len(chains)]
		k := &ch.specs[b.next()%len(ch.specs)]
		if p&16 != 0 {
			k.Work = 0
		} else {
			k.SMFrac = 0
		}
	}
	type window struct {
		from, to sim.Time
		a, b     float64
	}
	degrades := make([]window, flags>>3&3)
	for i := range degrades {
		degrades[i] = window{at(), at(), pick(&b, 0.5, 0.25, 1, 0.9), pick(&b, 1, 0.5, 0.25, 0.8)}
	}
	stalls := make([]window, flags>>5&1)
	for i := range stalls {
		stalls[i] = window{from: at(), to: at(), a: pick(&b, 0.2, 0.004, 1e-9, 1)}
	}
	sigma, seed := pick(&b, 0.1, 0.5), int64(b.next())

	work := func(eng *sim.Engine, d *Device, o *observer) {
		if noise {
			d.EnableNoise(sigma, seed)
		}
		for _, w := range degrades {
			eng.ScheduleAt(w.from, func() { d.SetDegradation(w.a, w.b) })
			eng.ScheduleAt(max(w.from, w.to), func() { d.SetDegradation(1, 1) })
		}
		for _, w := range stalls {
			eng.ScheduleAt(w.from, func() { d.SetLaunchStall(w.a) })
			eng.ScheduleAt(max(w.from, w.to), func() { d.SetLaunchStall(0) })
		}
		start := make([]func(), len(chains))
		for i, ch := range chains {
			done := o.note(fmt.Sprintf("chain %d done", i))
			start[i] = func() {
				d.RunChain(ch.specs, func() {
					done()
					if i+1 < len(chains) && chains[i+1].follows {
						start[i+1]()
					}
				})
			}
		}
		for i, ch := range chains {
			if !ch.follows {
				eng.ScheduleAt(ch.at, start[i])
			}
		}
	}
	instants := kernelInstants(inPlaceScenario{setup: work, partition: sc.partition})
	var external []sim.Time
	for n := b.next() % 6; len(external) < n; {
		if v := b.next(); v%2 == 0 && len(instants) > 0 {
			external = append(external, instants[v/2%len(instants)])
		} else {
			external = append(external, base+sim.Time(v)*0.05)
		}
	}
	if p := b.next(); p%4 == 3 && len(instants) > 0 {
		sc.pause = instants[p/4%len(instants)]
	} else if p%4 == 2 {
		sc.pause = at()
	}
	sc.setup = func(eng *sim.Engine, d *Device, o *observer) {
		for _, t := range external {
			eng.ScheduleAt(t, o.note("external"))
		}
		work(eng, d, o)
	}
	return sc
}

// TestGivenUpLaunchMatchesLaunch holds the in-place loop's give-up to the
// general path. Under a Step loop a chain's launch gives up at once and
// queues its kernel's completion itself; that must be the instant a plain
// Launch, through launchNow and rerate, queues, on a full device and a
// partition, under three degradations, with noise off and on.
func TestGivenUpLaunchMatchesLaunch(t *testing.T) {
	specs := append(append([]KernelSpec{}, soloSpecs...), otherSpecs...)
	specs = append(specs, KernelSpec{Name: "x", Work: 0.7, SMFrac: 0.3, MemFrac: 0.9})
	for _, part := range [][2]float64{{}, {0.5, 0.5}} {
		for _, degrade := range [][2]float64{{1, 1}, {0.5, 1}, {1, 0.5}} {
			for _, noise := range []float64{0, 0.3} {
				completion := func(launch func(eng *sim.Engine, d *Device)) sim.Time {
					eng := sim.NewEngine()
					d := inPlaceScenario{partition: part}.device(eng)
					d.SetDegradation(degrade[0], degrade[1])
					d.EnableNoise(noise, 7)
					launch(eng, d)
					eng.Step() // the launch
					at, _ := eng.NextAt()
					return at
				}
				for _, spec := range specs {
					got := completion(func(eng *sim.Engine, d *Device) { d.RunChain([]KernelSpec{spec}, nil) })
					want := completion(func(eng *sim.Engine, d *Device) {
						eng.Schedule(d.Profile().LaunchGap, func() { d.Launch(spec, nil) })
					})
					if got != want {
						t.Errorf("partition %v, degradation %v, noise %v, %s: chain completes at %v, Launch at %v",
							part, degrade, noise, spec.Name, got, want)
					}
				}
			}
		}
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

// TestUncontendedRatesMatchMaxMin pins the computeRates shortcut, and
// soloRate for a lone kernel, against the general max-min path for resident
// sets that fit, that fit exactly, and that overflow SM or (degraded)
// bandwidth capacity, on a full device and on a partition.
func TestUncontendedRatesMatchMaxMin(t *testing.T) {
	sets := [][]KernelSpec{
		{{Work: 1, SMFrac: 0.3, MemFrac: 0.2}},
		{{Work: 1, SMFrac: 1, MemFrac: 1}},
		{{Work: 1, SMFrac: 0.5, MemFrac: 0.5}},
		{{Work: 1, SMFrac: 0.9, MemFrac: 0}},
		{{Work: 1, SMFrac: 0.2, MemFrac: 0.8}},
		{{Work: 1, SMFrac: 1e-9, MemFrac: 1e-9}},
		{{Work: 1, SMFrac: 0.3, MemFrac: 0}, {Work: 1, SMFrac: 0.7, MemFrac: 0}},
		{{Work: 1, SMFrac: 0.1, MemFrac: 0.2}, {Work: 1, SMFrac: 0.2, MemFrac: 0.3}, {Work: 1, SMFrac: 0.7, MemFrac: 0.5}},
		{{Work: 1, SMFrac: 0.6, MemFrac: 0.2}, {Work: 1, SMFrac: 0.6, MemFrac: 0.2}},
		{{Work: 1, SMFrac: 0.2, MemFrac: 0.6}, {Work: 1, SMFrac: 0.2, MemFrac: 0.6}},
	}
	for _, part := range [][2]float64{{}, {0.5, 0.5}} {
		for _, degrade := range [][2]float64{{1, 1}, {0.5, 1}, {1, 0.5}} {
			for i, set := range sets {
				d := inPlaceScenario{partition: part}.device(sim.NewEngine())
				d.SetDegradation(degrade[0], degrade[1])
				for _, s := range set {
					d.Launch(s, nil)
				}
				want := generalRates(d)
				d.computeRates()
				for j, k := range d.running {
					if k.rate != want[j] {
						t.Errorf("partition %v, degradation %v, set %d, kernel %d: rate %v, max-min path %v", part, degrade, i, j, k.rate, want[j])
					}
				}
				if len(set) == 1 {
					if r := d.soloRate(set[0]); r != want[0] {
						t.Errorf("partition %v, degradation %v, set %d: soloRate %v, max-min path %v", part, degrade, i, r, want[0])
					}
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
