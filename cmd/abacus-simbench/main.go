// Command abacus-simbench runs the simulation hot-path microbenchmarks —
// event schedule/fire, event heap churn, the reschedule cycle under a
// parked arrival schedule, overlapped kernel chains on a device, and a full
// executor group cycle — via testing.Benchmark and
// writes the results as BENCH_sim.json. These paths run under every
// serving decision, so the bench lane uploads the artifact next to
// BENCH_http.json and abacus-trend gates it: allocs/op tightly (the hot
// path is allocation-free in steady state and must stay that way), ns/op
// generously.
//
// Usage:
//
//	abacus-simbench -o BENCH_sim.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"abacus/internal/chaos"
	"abacus/internal/cli"
	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/sim"
)

var fail = cli.Failer("abacus-simbench")

func main() {
	outFile := flag.String("o", "BENCH_sim.json", "artifact output path (empty: stdout table only)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(cli.Version())
		return
	}

	wallStart := time.Now()
	var benches []chaos.SimBench
	for _, bm := range hotPathBenchmarks() {
		res := testing.Benchmark(bm.fn)
		benches = append(benches, chaos.SimBench{
			Name:        bm.name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: float64(res.AllocsPerOp()),
			BytesPerOp:  float64(res.AllocedBytesPerOp()),
		})
		fmt.Printf("%-32s %10d ns/op %8d B/op %6d allocs/op\n",
			bm.name, res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp())
	}

	if *outFile == "" {
		return
	}
	art := chaos.SimArtifact{
		WallSeconds: time.Since(wallStart).Seconds(),
		Benchmarks:  benches,
	}
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// hotPathBenchmarks mirrors the hot-path benchmarks in the sim and gpusim
// test suites (same setups), packaged for testing.Benchmark so the bench
// lane can emit them as a machine-readable artifact.
func hotPathBenchmarks() []namedBench {
	var out []namedBench

	// Steady-state schedule → fire on an otherwise empty engine: the cost
	// of one pooled event round trip.
	out = append(out, namedBench{
		name: "BenchmarkEngineSchedule",
		fn: func(b *testing.B) {
			eng := sim.NewEngine()
			tick := func(any) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ScheduleArg(1, tick, nil)
				eng.Step()
			}
		},
	})

	// Schedule → fire against 1024 standing events: heap sift cost at the
	// pending-set depth a busy gateway sustains.
	out = append(out, namedBench{
		name: "BenchmarkEngineHeapChurn",
		fn: func(b *testing.B) {
			eng := sim.NewEngine()
			tick := func(any) {}
			for i := 0; i < 1024; i++ {
				eng.ScheduleArg(1e6+float64(i), tick, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.ScheduleArg(1, tick, nil)
				eng.Step()
			}
		},
	})

	// The shape a pre-scheduling host produces: 8192 far-future arrivals
	// parked while gpusim's launch-fires / cancel-completion / re-arm /
	// completion-fires cycle runs in the near future — once with one
	// ScheduleAt per arrival, once through ScheduleBatch, which holds one
	// queue slot for all of them.
	parked := make([]sim.Time, 8192)
	for i := range parked {
		parked[i] = 1e12 + sim.Time(i)
	}
	rescheduleCycle := func(b *testing.B, eng *sim.Engine) {
		tick := func(any) {}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			completion := eng.ScheduleArg(2, tick, nil)
			eng.ScheduleArg(1, tick, nil)
			eng.Step()
			eng.Cancel(completion)
			eng.ScheduleArg(0.5, tick, nil)
			eng.Step()
		}
	}
	out = append(out, namedBench{
		name: "BenchmarkEngineParked",
		fn: func(b *testing.B) {
			eng := sim.NewEngine()
			for _, t := range parked {
				eng.ScheduleArgAt(t, func(any) {}, nil)
			}
			rescheduleCycle(b, eng)
		},
	}, namedBench{
		name: "BenchmarkEngineBatch",
		fn: func(b *testing.B) {
			eng := sim.NewEngine()
			eng.ScheduleBatch(parked, func(int) {})
			rescheduleCycle(b, eng)
		},
	})

	// Two kernel chains contending on one device, drained to completion:
	// launch, max-min re-rating, completion, and pooled recycling.
	out = append(out, namedBench{
		name: "BenchmarkDeviceOverlap",
		fn: func(b *testing.B) {
			eng := sim.NewEngine()
			dev := gpusim.New(eng, gpusim.A100Profile())
			chainA := []gpusim.KernelSpec{
				{Name: "a0", Work: 1.0, SMFrac: 0.8, MemFrac: 0.5},
				{Name: "a1", Work: 0.5, SMFrac: 0.5, MemFrac: 0.2},
				{Name: "a2", Work: 0.8, SMFrac: 0.9, MemFrac: 0.7},
			}
			chainB := []gpusim.KernelSpec{
				{Name: "b0", Work: 0.7, SMFrac: 0.9, MemFrac: 0.8},
				{Name: "b1", Work: 1.2, SMFrac: 0.4, MemFrac: 0.3},
			}
			done := func(any) {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dev.RunChainArg(chainA, done, nil)
				dev.RunChainArg(chainB, done, nil)
				eng.Run()
			}
		},
	})

	// A full executor group cycle on the hot pair: spec materialization
	// from the cost model, two overlapped spans, synchronization.
	out = append(out, namedBench{
		name: "BenchmarkExecutorGroup",
		fn: func(b *testing.B) {
			eng := sim.NewEngine()
			dev := gpusim.New(eng, gpusim.A100Profile())
			exec := executor.New(dev, 0.05)
			g := predictor.Group{
				{Model: dnn.ResNet152, OpStart: 0, OpEnd: 40, Batch: 8},
				{Model: dnn.InceptionV3, OpStart: 0, OpEnd: 30, Batch: 8},
			}
			done := func() {}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				exec.Execute(g, done)
				eng.Run()
			}
		},
	})

	return out
}
