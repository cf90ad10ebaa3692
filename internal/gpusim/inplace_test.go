package gpusim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"abacus/internal/sim"
)

// A chain alone on its device steps in place while sim.Engine.AdvanceTo
// would let it, which only a Run/RunUntil loop does. Where it cannot, its
// kernel becomes an ordinary resident kernel, and when a chain kernel
// completes alone onCompletion hands the chain back to the loop. A tracer
// excludes the loop, so a Step loop with a tracer installed runs every
// kernel through launchNow and onCompletion's general path. Driving one
// workload those ways is therefore a differential test of the loop against
// the general path, with no switch in the code.

// drive is how a differential run steps the engine.
type drive int

const (
	// general is the reference: a Step loop with a tracer installed, so
	// every launch goes through launchNow and every completion through
	// onCompletion's general path.
	general drive = iota
	// stepped is a Step loop with no tracer: a chain on an idle device
	// enters the loop, which gives up at once, and a chain kernel that
	// completes alone re-enters it from onCompletion, but no event is ever
	// taken in place.
	stepped
	// inPlace is eng.Run, where the loop also steps in place.
	inPlace
)

func (how drive) String() string { return [...]string{"general", "stepped", "in place"}[how] }

// mark is one observation a workload makes: a callback firing, with the
// device state it saw, or a value it read.
type mark struct {
	what     string
	at       sim.Time
	launched int64
	resident int
	val      float64
}

// deviceOutcome is everything a workload can observe on the device, and
// the panic that stopped it, if any.
type deviceOutcome struct {
	marks        []mark
	busy, smTime float64
	energy       float64
	launched     int64
	panicked     string

	idleAtPause bool  // the Run side found nothing resident at its pause
	lone        int   // touches that found a lone chain kernel resident, off the general side
	traced      int64 // completions the tracer saw, on the general side
}

// observer hands out callbacks that record a mark when they fire, and
// touches the device as a workload's other events do.
type observer struct {
	eng      *sim.Engine
	d        *Device
	how      drive
	marks    []mark
	lone     int
	tracing  bool // a workload's tracer is on: trace records marks
	traced   int64
	instants []sim.Time // every traced kernel's launch and completion
}

// note returns a callback that records a mark named what.
func (o *observer) note(what string) func() {
	return func() { o.touch(what, touchNote) }
}

// touchKind is one way an event touches the device.
type touchKind int

const (
	touchNote     touchKind = iota // Resident
	touchBusy                      // BusyTime
	touchSM                        // SMTime
	touchEnergy                    // Energy
	touchUtil                      // Utilization
	touchTraceOn                   // SetTracer with a tracer that records marks
	touchTraceOff                  // SetTracer(nil)
	touchLaunch                    // a one-kernel chain
	touchDegrade                   // SetDegradation(0.5, 0.5)
	touchHeal                      // SetDegradation(1, 1)
	numTouches
)

// touchSpec is the kernel touchLaunch runs.
var touchSpec = KernelSpec{Name: "t", Work: 0.3, SMFrac: 0.5, MemFrac: 0.4}

// touch does one touch now and records it as a mark named what, with the
// value it read, if any.
func (o *observer) touch(what string, kind touchKind) {
	if o.how != general && loneChainKernel(o.d) {
		o.lone++
	}
	m := mark{what: what, at: o.eng.Now()}
	switch kind {
	case touchBusy:
		m.val = o.d.BusyTime()
	case touchSM:
		m.val = o.d.SMTime()
	case touchEnergy:
		m.val = o.d.Energy(A100Energy())
	case touchUtil:
		m.val = o.d.Utilization()
	case touchTraceOn, touchTraceOff:
		o.setTracing(kind == touchTraceOn)
	case touchLaunch:
		o.d.RunChain([]KernelSpec{touchSpec}, nil)
	case touchDegrade:
		o.d.SetDegradation(0.5, 0.5)
	case touchHeal:
		o.d.SetDegradation(1, 1)
	}
	m.launched = o.d.Launched()
	if kind == touchNote {
		m.resident = o.d.Resident()
	}
	o.marks = append(o.marks, m)
}

// setTracing turns the workload's tracer on or off. The general side keeps
// a tracer installed throughout, so that it never leaves the general path.
func (o *observer) setTracing(on bool) {
	o.tracing = on
	if on || o.how == general {
		o.d.SetTracer(o.trace)
		return
	}
	o.d.SetTracer(nil)
}

func (o *observer) trace(e KernelEvent) {
	o.traced++
	o.instants = append(o.instants, e.Start, e.Finish)
	if o.tracing {
		o.marks = append(o.marks, mark{what: "trace " + e.Name, at: e.Finish, val: e.Start})
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
	touches   bool // some touch must find a lone chain kernel resident
}

// device returns the scenario's fresh device on eng.
func (sc inPlaceScenario) device(eng *sim.Engine) *Device {
	d := New(eng, testProfile())
	if sc.partition != [2]float64{} {
		d = d.Partition(sc.partition[0], sc.partition[1])
	}
	return d
}

// driveDevice runs the scenario on a fresh device, driven as how says. A
// panic, such as a range check failing, ends the run and is recorded.
func driveDevice(sc inPlaceScenario, how drive) (out deviceOutcome) {
	eng := sim.NewEngine()
	eng.Run() // a Run that has returned must not let a later Step loop go in place
	d := sc.device(eng)
	o := &observer{eng: eng, d: d, how: how}
	if how == general {
		o.setTracing(false)
	}
	defer func() {
		if r := recover(); r != nil {
			out.panicked = fmt.Sprint(r)
		}
		out.marks, out.lone, out.traced = o.marks, o.lone, o.traced
		out.busy, out.smTime = d.BusyTime(), d.SMTime()
		out.energy = d.Energy(A100Energy())
		out.launched = d.Launched()
	}()
	sc.setup(eng, d, o)
	switch {
	case how != inPlace:
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

// requireGeneral fails unless the reference ran every kernel through
// onCompletion's general path, whose tracer call is the only one.
func requireGeneral(t *testing.T, ref deviceOutcome) {
	t.Helper()
	if ref.panicked == "" && ref.traced != ref.launched {
		t.Errorf("general side: %d of %d kernels completed through onCompletion", ref.traced, ref.launched)
	}
}

// loneChainKernel reports whether a chain's kernel is the only one resident
// on d, as the loop leaves a kernel it gives up.
func loneChainKernel(d *Device) bool {
	if len(d.running) != 1 {
		return false
	}
	_, ok := d.running[0].doneArg.(*chain)
	return ok
}

// requireSameOutcome fails unless got, driven as how, observed exactly
// what the general reference want did.
func requireSameOutcome(t *testing.T, how drive, got, want deviceOutcome) {
	t.Helper()
	if got.panicked != want.panicked {
		t.Errorf("panic: %v %q, general %q", how, got.panicked, want.panicked)
	}
	if len(got.marks) != len(want.marks) {
		t.Fatalf("%v observed %d callbacks, general %d", how, len(got.marks), len(want.marks))
	}
	for i := range got.marks {
		if got.marks[i] != want.marks[i] {
			t.Errorf("callback %d: %v %+v, general %+v", i, how, got.marks[i], want.marks[i])
		}
	}
	if got.busy != want.busy || got.smTime != want.smTime || got.energy != want.energy || got.launched != want.launched {
		t.Errorf("accounting: %v busy=%v sm=%v energy=%v launched=%d, general %v %v %v %d",
			how, got.busy, got.smTime, got.energy, got.launched, want.busy, want.smTime, want.energy, want.launched)
	}
}

// compareDrives drives sc all three ways and requires the stepped and
// in-place runs to match the general one; it returns all three outcomes.
func compareDrives(t *testing.T, sc inPlaceScenario) (ref, step, run deviceOutcome) {
	t.Helper()
	ref, step, run = driveDevice(sc, general), driveDevice(sc, stepped), driveDevice(sc, inPlace)
	requireGeneral(t, ref)
	requireSameOutcome(t, stepped, step, ref)
	requireSameOutcome(t, inPlace, run, ref)
	return ref, step, run
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
// scenario's kernels, taken from a general-path dry run. A panic ends the
// dry run; the instants before it are returned.
func kernelInstants(sc inPlaceScenario) (at []sim.Time) {
	eng := sim.NewEngine()
	d := sc.device(eng)
	o := &observer{eng: eng, d: d, how: general}
	o.setTracing(false)
	defer func() {
		recover()
		at = o.instants
	}()
	sc.setup(eng, d, o)
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
	// Touches halfway through the solo chain's kernels, the i-th in kernel
	// i: the touch is pending when that kernel launches, so its loop gives
	// up and the kernel is resident alone when the touch fires.
	touches := func(kinds ...touchKind) func(eng *sim.Engine, d *Device, o *observer) {
		return func(eng *sim.Engine, d *Device, o *observer) {
			for i, kind := range kinds {
				eng.ScheduleAt((instants[2*i]+instants[2*i+1])/2, func() { o.touch("touch", kind) })
			}
			solo(eng, d, o)
		}
	}
	return append(scs,
		inPlaceScenario{name: "external event at chain instants", setup: external(instants)},
		inPlaceScenario{name: "external event at launch instants", setup: external(launches)},
		inPlaceScenario{name: "accessors on a given-up kernel", touches: true,
			setup: touches(touchBusy, touchSM, touchEnergy, touchUtil)},
		inPlaceScenario{name: "a second chain and Resident on a given-up kernel", touches: true,
			setup: touches(touchNote, touchLaunch, touchNote, touchLaunch)},
		inPlaceScenario{name: "degradation on a given-up kernel", touches: true,
			setup: touches(touchDegrade, touchHeal, touchDegrade, touchHeal)},
		inPlaceScenario{name: "tracer set on a given-up kernel", touches: true,
			setup: touches(touchTraceOn, touchNote, touchTraceOff, touchNote)})
}

// TestInPlaceMatchesQueued requires the loop to be invisible: every
// callback's instant and observed device state, every value read, and the
// busy/SM/energy integrals are bit-identical between the general path, a
// Step loop in which chains enter the loop and give up at once, and Run, in
// which they also step in place.
func TestInPlaceMatchesQueued(t *testing.T) {
	for _, sc := range inPlaceScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ref, step, run := compareDrives(t, sc)
			if ref.panicked != "" {
				t.Fatalf("scenario panicked: %s", ref.panicked)
			}
			if run.idleAtPause {
				t.Fatalf("no kernel resident at the %v pause; it must fall mid-kernel", sc.pause)
			}
			if sc.touches && (step.lone == 0 || run.lone == 0) {
				t.Fatalf("no touch found a lone chain kernel resident: %d stepped, %d in place", step.lone, run.lone)
			}
		})
	}
}

// FuzzInPlaceMatchesQueued is TestInPlaceMatchesQueued over workloads the
// fuzzer builds (see fuzzScenario): the general path, a Step loop and Run
// must observe the same callbacks, device state, values, integrals and
// panic, bit for bit.
func FuzzInPlaceMatchesQueued(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x07, 0, 0, 3, 0, 8, 5, 2, 2, 4, 6, 1, 6, 6, 3, 1})                         // four chains on a partition, noise, a day in
	f.Add([]byte{0x30, 1, 1, 3, 20, 1, 2, 3, 1, 1, 5, 3, 7, 1, 7, 0, 2, 1, 40, 0, 60, 3, 2}) // two chains, degradation and stall windows
	f.Add([]byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 31, 1})                                       // the second kernel of a solo chain has Work 0
	f.Add([]byte{0xc8, 2, 5, 50, 7, 0, 6, 1, 5, 5, 2, 2, 3, 0, 4, 4, 10, 30, 2, 1, 5, 0, 5, 1, 5, 2, 5, 3, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		compareDrives(t, fuzzScenario(data))
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
// completion; external events, half of them at exact kernel instants, each
// one touch of the device; an optional RunUntil pause; and all of it
// optionally a day from time zero.
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
	type touchAt struct {
		at   sim.Time
		kind touchKind
	}
	var external []touchAt
	for n := b.next() % 6; len(external) < n; {
		if v := b.next(); v%2 == 0 && len(instants) > 0 {
			external = append(external, touchAt{at: instants[v/2%len(instants)]})
		} else {
			external = append(external, touchAt{at: base + sim.Time(v)*0.05})
		}
	}
	if p := b.next(); p%4 == 3 && len(instants) > 0 {
		sc.pause = instants[p/4%len(instants)]
	} else if p%4 == 2 {
		sc.pause = at()
	}
	// The kinds come last, so that an input that ends before them makes
	// every external event a plain note.
	for i := range external {
		external[i].kind = touchKind(b.next() % int(numTouches))
	}
	sc.setup = func(eng *sim.Engine, d *Device, o *observer) {
		for _, e := range external {
			eng.ScheduleAt(e.at, func() { o.touch("external", e.kind) })
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
// compares different paths. A solo chain's callback is reached from
// onCompletion's general path under a Step loop with a tracer, from the
// loop that onCompletion re-enters under a plain Step loop, and from the
// loop alone, with no completion event popped, under Run.
func TestSoloChainSkipsQueueOnlyUnderRun(t *testing.T) {
	for _, how := range []drive{general, stepped, inPlace} {
		eng := sim.NewEngine()
		eng.Run()
		d := New(eng, testProfile())
		if how == general {
			d.SetTracer(func(KernelEvent) {})
		}
		path := "no known"
		d.RunChain(soloSpecs, func() {
			completion, loop := calledFrom("(*Device).onCompletion"), calledFrom("(*chain).runOwned")
			switch {
			case completion && !loop:
				path = general.String()
			case completion && loop:
				path = stepped.String()
			case loop:
				path = inPlace.String()
			}
		})
		if how == inPlace {
			eng.Run()
		} else {
			for eng.Step() {
			}
		}
		if path != how.String() {
			t.Errorf("%v: chain completed on the %s path", how, path)
		}
	}
}

// TestLoneKernelAfterContentionContinuesInPlace runs two chains on one
// device under Run: A's one kernel and the first of B's three overlap, and
// when A's completes, B's kernel runs on alone. Its completion continues B
// in place, launch gaps included, so the engine pops only the two chains'
// first launch gaps and the two contended completions. Taking B's first
// launch gap after contention as an event would pop a fifth.
func TestLoneKernelAfterContentionContinuesInPlace(t *testing.T) {
	k := func(work float64) KernelSpec { return KernelSpec{Name: "k", Work: work, SMFrac: 0.8, MemFrac: 0.5} }
	finishes := func(how drive) (a, b sim.Time, popped int64) {
		eng := sim.NewEngine()
		d := New(eng, testProfile())
		if how == general {
			d.SetTracer(func(KernelEvent) {})
		}
		d.RunChain([]KernelSpec{k(0.5)}, func() { a = eng.Now() })
		d.RunChain([]KernelSpec{k(1), k(1), k(1)}, func() { b = eng.Now() })
		if how == inPlace {
			eng.Run()
		} else {
			for eng.Step() {
			}
		}
		return a, b, eng.Popped()
	}
	a, b, popped := finishes(inPlace)
	if wantA, wantB, _ := finishes(general); a != wantA || b != wantB {
		t.Errorf("chains finish at %v and %v, general path %v and %v", a, b, wantA, wantB)
	}
	if !almostEqual(a, 0.81, 1e-12) || !almostEqual(b, 3.33, 1e-12) {
		t.Errorf("chains finish at %v and %v, want 0.81 and 3.33", a, b)
	}
	if popped != 4 {
		t.Errorf("engine popped %d events, want 4", popped)
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
