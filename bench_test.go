// Benchmarks regenerating every table and figure of the paper (one
// Benchmark per artifact, backed by internal/experiments in quick mode), a
// set of ablation benchmarks for the design choices DESIGN.md calls out,
// and microbenchmarks of the hot paths (device events, predictions,
// multi-way search).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks execute one full quick-mode experiment per iteration;
// with the default -benchtime they run a single iteration each.
package abacus_test

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"abacus"
	"abacus/internal/admit"
	"abacus/internal/core"
	"abacus/internal/dnn"
	"abacus/internal/experiments"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/runner"
	"abacus/internal/sched"
	"abacus/internal/serving"
	"abacus/internal/sim"
	"abacus/internal/trace"
)

// benchExperiment runs one registered experiment in quick mode per
// iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := experiments.Run(id, experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			t.Render(io.Discard)
		}
	}
}

func BenchmarkFig03MPSLatencyCDF(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig07Determinism(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig10PredictorAccuracy(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig14PairwiseTail(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkFig15QoSViolation(b *testing.B)      { benchExperiment(b, "fig15") }
func BenchmarkFig16SmallDNNs(b *testing.B)         { benchExperiment(b, "fig16") }
func BenchmarkFig17PeakThroughput(b *testing.B)    { benchExperiment(b, "fig17") }
func BenchmarkFig18NWiseTail(b *testing.B)         { benchExperiment(b, "fig18") }
func BenchmarkFig19NWiseThroughput(b *testing.B)   { benchExperiment(b, "fig19") }
func BenchmarkFig20MIGTail(b *testing.B)           { benchExperiment(b, "fig20") }
func BenchmarkFig21MIGThroughput(b *testing.B)     { benchExperiment(b, "fig21") }
func BenchmarkFig22Cluster(b *testing.B)           { benchExperiment(b, "fig22") }
func BenchmarkFig23MultiwaySearch(b *testing.B)    { benchExperiment(b, "fig23") }
func BenchmarkOverhead(b *testing.B)               { benchExperiment(b, "overhead") }
func BenchmarkAblationDesignChoices(b *testing.B)  { benchExperiment(b, "ablations") }

// BenchmarkAblationPolicies measures one serving run per policy on the hot
// pair, reporting goodput and violation metrics so policy regressions show
// up in bench output.
func BenchmarkAblationPolicies(b *testing.B) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	gen := trace.NewGenerator(models, 1)
	arrivals := gen.Poisson(50, 4000)
	for _, policy := range serving.AllPolicies() {
		policy := policy
		b.Run(policy.String(), func(b *testing.B) {
			var res serving.Result
			for i := 0; i < b.N; i++ {
				res = serving.Run(serving.RunConfig{
					Policy: policy, Models: models, Arrivals: arrivals,
				})
			}
			b.ReportMetric(res.Goodput(), "goodput_r/s")
			b.ReportMetric(100*res.ViolationRatio(), "violation_%")
		})
	}
}

// --- Microbenchmarks of the hot paths ---

// BenchmarkDeviceContendedKernels measures the simulator's event
// throughput with four contending kernel chains resident.
func BenchmarkDeviceContendedKernels(b *testing.B) {
	p := gpusim.A100Profile()
	spec := gpusim.KernelSpec{Name: "k", Work: 0.05, SMFrac: 0.4, MemFrac: 0.3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		dev := gpusim.New(eng, p)
		specs := make([]gpusim.KernelSpec, 64)
		for j := range specs {
			specs[j] = spec
		}
		for c := 0; c < 4; c++ {
			dev.RunChain(specs, nil)
		}
		eng.Run()
	}
}

// BenchmarkGroupMeasure measures one ground-truth operator-group
// simulation — the unit of offline profiling cost.
func BenchmarkGroupMeasure(b *testing.B) {
	p := gpusim.A100Profile()
	m50, m152 := dnn.Get(dnn.ResNet50), dnn.Get(dnn.ResNet152)
	g := predictor.Group{
		{Model: dnn.ResNet50, OpStart: 0, OpEnd: m50.NumOps(), Batch: 16},
		{Model: dnn.ResNet152, OpStart: 100, OpEnd: m152.NumOps(), Batch: 8},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		predictor.Measure(g, p, 0, 0)
	}
}

// BenchmarkPredictorPredict measures one trained-MLP duration prediction —
// the paper reports 0.06 ms per invocation (§7.7).
func BenchmarkPredictorPredict(b *testing.B) {
	cfg := predictor.DefaultSamplerConfig()
	cfg.Runs = 1
	samples := predictor.Collect([]dnn.ModelID{dnn.ResNet50, dnn.VGG16}, 2, 100, cfg)
	tc := predictor.DefaultTrainConfig()
	tc.Epochs = 50
	pred, err := predictor.Train(samples, predictor.NewCodec(), tc)
	if err != nil {
		b.Fatal(err)
	}
	g := samples[0].Group
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pred.Predict(g)
	}
}

// BenchmarkMultiwaySearch measures one full group search with the
// default 4 ways.
func BenchmarkMultiwaySearch(b *testing.B) {
	cfg := predictor.DefaultSamplerConfig()
	cfg.Runs = 1
	samples := predictor.Collect([]dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}, 2, 100, cfg)
	tc := predictor.DefaultTrainConfig()
	tc.Epochs = 50
	pred, err := predictor.Train(samples, predictor.NewCodec(), tc)
	if err != nil {
		b.Fatal(err)
	}
	m152, mInc := dnn.Get(dnn.ResNet152), dnn.Get(dnn.InceptionV3)
	base := predictor.Group{{Model: dnn.ResNet152, OpStart: 0, OpEnd: m152.NumOps(), Batch: 16}}
	entry := predictor.Entry{Model: dnn.InceptionV3, OpStart: 0, Batch: 16}
	budget := pred.Predict(base) * 1.2
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sched.MaxFeasibleSpan(pred, base, entry, mInc.NumOps(), budget, 4)
	}
}

// BenchmarkMaxFeasibleSpan measures one multi-way span search against a
// trained duration model with a two-entry base group — the per-candidate
// unit of work inside every scheduling round. The search scratch is reused
// across iterations, matching how the controller calls it.
func BenchmarkMaxFeasibleSpan(b *testing.B) {
	cfg := predictor.DefaultSamplerConfig()
	cfg.Runs = 1
	samples := predictor.Collect([]dnn.ModelID{dnn.ResNet50, dnn.ResNet152, dnn.InceptionV3}, 2, 100, cfg)
	tc := predictor.DefaultTrainConfig()
	tc.Epochs = 50
	pred, err := predictor.Train(samples, predictor.NewCodec(), tc)
	if err != nil {
		b.Fatal(err)
	}
	m50, m152, mInc := dnn.Get(dnn.ResNet50), dnn.Get(dnn.ResNet152), dnn.Get(dnn.InceptionV3)
	base := predictor.Group{
		{Model: dnn.ResNet50, OpStart: 0, OpEnd: m50.NumOps(), Batch: 8},
		{Model: dnn.ResNet152, OpStart: 40, OpEnd: m152.NumOps(), Batch: 16},
	}
	entry := predictor.Entry{Model: dnn.InceptionV3, OpStart: 0, Batch: 16}
	budget := pred.Predict(base) * 1.2
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sched.MaxFeasibleSpan(pred, base, entry, mInc.NumOps(), budget, 4)
	}
}

// BenchmarkGatewayRound measures the gateway's per-request hot path minus
// HTTP: one admission decision plus one full scheduling round (submit →
// group formation → execution → drain) on the hot pair with a trained
// duration model.
func BenchmarkGatewayRound(b *testing.B) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	cfg := predictor.DefaultSamplerConfig()
	cfg.Runs = 1
	samples := predictor.Collect(models, 2, 100, cfg)
	tc := predictor.DefaultTrainConfig()
	tc.Epochs = 50
	pred, err := predictor.Train(samples, predictor.NewCodec(), tc)
	if err != nil {
		b.Fatal(err)
	}
	profile := gpusim.A100Profile()
	rt, err := core.New(core.Config{Models: models, Model: pred, Profile: profile})
	if err != nil {
		b.Fatal(err)
	}
	adm := admit.New(pred, profile, rt.Services(), 64, 0.02, nil)
	in := dnn.Input{Batch: 8}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := i % len(models)
		now := rt.Engine().Now()
		d := adm.Decide(now, svc, in, 0)
		if !d.OK {
			b.Fatalf("iteration %d: admission rejected (%s) with an empty backlog", i, d.Reason)
		}
		adm.Admitted(svc, d.WorkMS)
		rt.Submit(svc, in, now)
		rt.Engine().Run()
		adm.Finish(svc, d.WorkMS)
	}
}

// BenchmarkServeAbacusSecond measures one simulated second of Abacus
// serving on the hot pair with the oracle model.
func BenchmarkServeAbacusSecond(b *testing.B) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	gen := trace.NewGenerator(models, 1)
	arrivals := gen.Poisson(50, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		serving.Run(serving.RunConfig{
			Policy: serving.PolicyAbacus, Models: models, Arrivals: arrivals,
		})
	}
}

// BenchmarkRunnerScaling measures the worker-pool harness on a fixed batch
// of independent serving runs (the unit of every sweep experiment) at
// widths 1, 2, 4, and NumCPU. Sub-benchmark times divided by the
// parallel=1 time give the harness's wall-clock scaling on this machine.
func BenchmarkRunnerScaling(b *testing.B) {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	gen := trace.NewGenerator(models, 1)
	arrivals := gen.Poisson(50, 1000)
	const jobs = 8
	widths := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		w := w
		b.Run(fmt.Sprintf("parallel=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runner.Map(jobs, w, func(j int) serving.Result {
					return serving.Run(serving.RunConfig{
						Policy: serving.PolicyAbacus, Models: models, Arrivals: arrivals,
					})
				})
			}
		})
	}
}

// BenchmarkSystemFacade measures the public API end to end.
func BenchmarkSystemFacade(b *testing.B) {
	sys, err := abacus.NewSystem(abacus.SystemConfig{
		Models: []abacus.Model{abacus.ResNet50, abacus.Bert},
		Policy: abacus.PolicyAbacus,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sys.Serve(40, 1000)
	}
}
