package gpusim_test

import (
	"testing"

	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/sim"
)

// res152Span returns the zoo's Res152 batch-32 span, every operator, as the
// serving path takes it from a spec table.
func res152Span() []gpusim.KernelSpec {
	specs := dnn.NewSpecs(gpusim.A100Profile())
	in := dnn.Input{Batch: 32}
	return specs.Span(dnn.ResNet152, in, 0, len(dnn.Get(dnn.ResNet152).Ops))
}

// soloCycle returns a function that runs span alone on an idle device under
// eng.Run, where the chain owns the device and steps in place.
func soloCycle(span []gpusim.KernelSpec) func() {
	eng := sim.NewEngine()
	dev := gpusim.New(eng, gpusim.A100Profile())
	done := func(any) {}
	return func() {
		dev.RunChainArg(span, done, nil)
		eng.Run()
	}
}

// TestSoloChainZeroAllocs is TestDeviceSteadyStateZeroAllocs for the
// in-place path: a solo chain under Run allocates nothing once warm.
func TestSoloChainZeroAllocs(t *testing.T) {
	cycle := soloCycle(res152Span())
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("solo chain under Run allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkSoloChain runs the Res152 batch-32 span alone on an idle device
// under Run: the in-place loop of a chain that owns the device, per kernel.
func BenchmarkSoloChain(b *testing.B) {
	span := res152Span()
	cycle := soloCycle(span)
	cycle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(span)), "ns/kernel")
}
