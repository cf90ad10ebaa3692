package executor

import (
	"slices"
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sim"
)

// A chain alone on its device runs in the device's loop, which gives its
// kernel up to the resident set at once under a Step loop and, under
// Run/RunUntil, steps in place, skipping the event queue; a tracer excludes
// the loop, so a Step loop with a tracer takes only the device's general
// path. Driving the same groups under Run, under a Step loop, and under a
// Step loop with a tracer therefore checks, with no switch in the code,
// that the loop changes nothing the executor or the device can observe.

// groupSequence is the base workload: a solo span, a two-span group whose
// chains overlap, and another solo span, issued back to back.
var groupSequence = []predictor.Group{
	{fullSpan(dnn.ResNet50, 8, 0)},
	{
		{Model: dnn.ResNet152, OpStart: 0, OpEnd: 120, Batch: 8},
		{Model: dnn.InceptionV3, OpStart: 0, OpEnd: 100, Batch: 8},
	},
	{fullSpan(dnn.InceptionV3, 4, 0)},
}

type execOutcome struct {
	finishes     []sim.Time // each group's completion instant
	external     []sim.Time // instants external events fired at
	seen         [][2]int64 // the launched and resident counts each of them saw
	busy, smTime float64
	energy       float64
	launched     int64
}

// execScenario perturbs the base workload: setup may schedule device faults
// or external events; pause, when positive, makes the Run side stop there
// with RunUntil and then resume.
type execScenario struct {
	name  string
	setup func(eng *sim.Engine, dev *gpusim.Device, out *execOutcome)
	pause sim.Time
}

// driveGroups runs the base workload plus the scenario's perturbations,
// with eng.Run (in place allowed) or a Step loop (never in place). A tracer,
// when given, is installed before anything runs, and keeps every chain on
// the general path.
func driveGroups(sc execScenario, run bool, tracer gpusim.Tracer) (execOutcome, bool) {
	eng := sim.NewEngine()
	eng.Run() // a Run that has returned must not let a later Step loop go in place
	dev := gpusim.New(eng, gpusim.A100Profile())
	dev.SetTracer(tracer)
	ex := New(dev, 0.02, nil)
	var out execOutcome
	if sc.setup != nil {
		sc.setup(eng, dev, &out)
	}
	var issue func(i int)
	issue = func(i int) {
		if i == len(groupSequence) {
			return
		}
		ex.Execute(groupSequence[i], func() {
			out.finishes = append(out.finishes, eng.Now())
			issue(i + 1)
		})
	}
	issue(0)
	pausedMid := true
	switch {
	case !run:
		for eng.Step() {
		}
	case sc.pause > 0:
		eng.RunUntil(sc.pause)
		pausedMid = dev.Resident() > 0
		eng.Run()
	default:
		eng.Run()
	}
	out.busy, out.smTime = dev.BusyTime(), dev.SMTime()
	out.energy = dev.Energy(gpusim.A100Energy())
	out.launched = dev.Launched()
	return out, pausedMid
}

func TestExecutorInPlaceMatchesQueued(t *testing.T) {
	// A traced dry run fixes the timeline the scenarios aim at: its
	// makespan, and every kernel's launch and completion instant.
	var instants []sim.Time
	base, _ := driveGroups(execScenario{}, false, func(e gpusim.KernelEvent) {
		instants = append(instants, e.Start, e.Finish)
	})
	makespan := base.finishes[len(base.finishes)-1]
	at := func(frac float64) sim.Time { return frac * makespan }

	scenarios := []execScenario{
		{name: "base"},
		{name: "degradation mid-kernel", setup: func(eng *sim.Engine, dev *gpusim.Device, _ *execOutcome) {
			eng.ScheduleAt(at(0.2), func() { dev.SetDegradation(0.6, 0.7) })
			eng.ScheduleAt(at(0.5), func() { dev.SetDegradation(1, 1) })
		}},
		{name: "launch-stall window", setup: func(eng *sim.Engine, dev *gpusim.Device, _ *execOutcome) {
			eng.ScheduleAt(at(0.55), func() { dev.SetLaunchStall(0.01) })
			eng.ScheduleAt(at(0.7), func() { dev.SetLaunchStall(0) })
		}},
		{name: "noise on", setup: func(_ *sim.Engine, dev *gpusim.Device, _ *execOutcome) {
			dev.EnableNoise(0.05, 9)
		}},
		{name: "RunUntil stops mid-chain", pause: base.finishes[0] / 2},
		{name: "external event at chain instants", setup: func(eng *sim.Engine, dev *gpusim.Device, out *execOutcome) {
			for _, t := range instants {
				eng.ScheduleAt(t, func() {
					out.external = append(out.external, eng.Now())
					out.seen = append(out.seen, [2]int64{dev.Launched(), int64(dev.Resident())})
				})
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			want, _ := driveGroups(sc, false, func(gpusim.KernelEvent) {})
			stepped, _ := driveGroups(sc, false, nil)
			inPlace, pausedMid := driveGroups(sc, true, nil)
			if !pausedMid {
				t.Fatalf("no kernel resident at the %v pause; it must fall mid-kernel", sc.pause)
			}
			for _, side := range []struct {
				name string
				got  execOutcome
			}{{"Step loop", stepped}, {"Run", inPlace}} {
				got := side.got
				if !slices.Equal(got.finishes, want.finishes) {
					t.Errorf("group finishes: %s %v, general path %v", side.name, got.finishes, want.finishes)
				}
				if !slices.Equal(got.external, want.external) || !slices.Equal(got.seen, want.seen) {
					t.Errorf("external events: %s saw (launched, resident) %v, general path %v", side.name, got.seen, want.seen)
				}
				if got.busy != want.busy || got.smTime != want.smTime || got.energy != want.energy || got.launched != want.launched {
					t.Errorf("accounting: %s busy=%v sm=%v energy=%v launched=%d, general path %v %v %v %d",
						side.name, got.busy, got.smTime, got.energy, got.launched, want.busy, want.smTime, want.energy, want.launched)
				}
			}
		})
	}
}
