package gpusim_test

import (
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/sim"
)

// res152Span returns the zoo's Res152 batch-32 span, every operator, as the
// serving path takes it from a spec table.
func res152Span() gpusim.CheckedSpecs {
	specs := dnn.NewSpecs(gpusim.A100Profile())
	in := dnn.Input{Batch: 32}
	return specs.Span(dnn.ResNet152, in, 0, len(dnn.Get(dnn.ResNet152).Ops))
}

// soloCycle returns a function that runs span alone on an idle device under
// eng.Run, where the chain is alone on the device and steps in place.
func soloCycle(span gpusim.CheckedSpecs) func() {
	eng := sim.NewEngine()
	dev := gpusim.New(eng, gpusim.A100Profile())
	done := func(any) {}
	return func() {
		dev.RunChainArg(span, done, nil)
		eng.Run()
	}
}

// sharedOffset is how long after the first chain the second one starts: a
// fraction of a Res152 kernel, so that the two chains' kernel instants
// interleave for their whole length.
const sharedOffset = 0.0371

// sharedCycle returns a function that runs span on each of two devices of
// one engine under eng.Run, the second chain sharedOffset after the first,
// as a chaos run lays out two nodes' groups. Each chain's next completion is
// then usually due after the other's, so its loop gives up at nearly every
// completion instant.
func sharedCycle(span gpusim.CheckedSpecs) (*sim.Engine, func()) {
	eng := sim.NewEngine()
	a := gpusim.New(eng, gpusim.A100Profile())
	b := gpusim.New(eng, gpusim.A100Profile())
	done := func(any) {}
	startB := func(any) { b.RunChainArg(span, done, nil) }
	return eng, func() {
		a.RunChainArg(span, done, nil)
		eng.ScheduleArg(sharedOffset, startB, nil)
		eng.Run()
	}
}

// TestSoloChainZeroAllocs is TestDeviceSteadyStateZeroAllocs for the
// in-place path: a solo chain under Run allocates nothing once warm, and
// neither do two chains that keep giving up on a shared engine.
func TestSoloChainZeroAllocs(t *testing.T) {
	_, shared := sharedCycle(res152Span())
	for name, cycle := range map[string]func(){"solo": soloCycle(res152Span()), "shared engine": shared} {
		cycle()
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("%s chain under Run allocated %v times per run, want 0", name, allocs)
		}
	}
}

// TestSharedEngineGiveUpPops pins how many events the engine pops for two
// interleaved Res152 chains on two devices. Each chain's loop gives up at
// nearly every completion instant, because the other device's event is due
// first. Such a give-up costs one pop, the completion's: the chain keeps the
// device, and at its completion continues in place through the launch gap.
// A give-up that hands its kernel to the general completion path, which
// then queues the launch gap, pops 1,367 events here.
func TestSharedEngineGiveUpPops(t *testing.T) {
	span := res152Span()
	eng, cycle := sharedCycle(span)
	cycle()
	if got, want := eng.Popped(), int64(775); got != want {
		t.Errorf("two interleaved chains of %d kernels each popped %d events, want %d", len(span.Specs()), got, want)
	}
}

// BenchmarkSoloChain runs the Res152 batch-32 span alone on an idle device
// under Run: the in-place loop of a chain alone on its device, per kernel.
func BenchmarkSoloChain(b *testing.B) {
	span := res152Span()
	benchCycle(b, soloCycle(span), len(span.Specs()))
}

// BenchmarkSharedEngineChains runs two Res152 batch-32 chains on two devices
// of one engine, interleaved: the give-up path of the loop, per kernel.
func BenchmarkSharedEngineChains(b *testing.B) {
	span := res152Span()
	_, cycle := sharedCycle(span)
	benchCycle(b, cycle, 2*len(span.Specs()))
}

// benchCycle times cycle, which runs kernels kernels, after one warm-up run.
func benchCycle(b *testing.B, cycle func(), kernels int) {
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kernels), "ns/kernel")
}
