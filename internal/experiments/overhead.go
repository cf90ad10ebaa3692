package experiments

import (
	"fmt"
	"time"

	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/ml"
	"abacus/internal/predictor"
	"abacus/internal/sched"
	"abacus/internal/sim"
	"abacus/internal/trace"
)

func init() { register("overhead", Overhead) }

// Overhead reproduces the §7.8 accounting: the predictor's memory
// footprint (paper: ≈14 kB), its per-invocation latency (paper: 0.06 ms),
// the offline profiling cost, and the GPU memory the segmental executor
// holds for intermediate results (paper: ≈20 MB).
func Overhead(opts Options) []Table {
	t := Table{
		ID:     "overhead",
		Title:  "Abacus runtime overheads (§7.8)",
		Header: []string{"quantity", "measured", "paper"},
	}

	// Predictor footprint: the paper's 3×32 MLP at float32.
	mlp := &ml.MLP{Epochs: 1, Seed: 1}
	var ds ml.Dataset
	codec := predictor.NewCodec()
	sampler := predictor.NewSampler(predictor.SamplerConfig{
		Profile: profile(), Runs: 1, Seed: opts.Seed,
	})
	for i := 0; i < 64; i++ {
		g := sampler.SampleGroup([]dnn.ModelID{dnn.ResNet50, dnn.VGG16})
		ds.Append(codec.Encode(g), 1)
	}
	if err := mlp.Fit(ds); err != nil {
		panic(err)
	}
	t.AddRow("predictor parameters",
		fmt.Sprintf("%d (%.1f kB fp32)", mlp.ParamCount(), float64(mlp.ParamCount())*4/1024),
		"≈14 kB")

	// Per-prediction wall time.
	x := codec.Encode(sampler.SampleGroup([]dnn.ModelID{dnn.ResNet50, dnn.VGG16}))
	const iters = 20000
	start := time.Now()
	for i := 0; i < iters; i++ {
		mlp.Predict(x)
	}
	per := time.Since(start).Seconds() * 1000 / iters
	t.AddRow("single prediction", f3(per)+" ms", "0.06 ms")

	// Offline profiling cost: wall time to measure one operator-group
	// sample, extrapolated to the paper's 2000 × 21 pairs × 100 runs.
	gStart := time.Now()
	const groupIters = 200
	for i := 0; i < groupIters; i++ {
		g := sampler.SampleGroup([]dnn.ModelID{dnn.ResNet152, dnn.VGG19})
		predictor.Measure(g, profile(), 0, 0)
	}
	perGroup := time.Since(gStart).Seconds() / groupIters
	t.AddRow("one group measurement (simulated)",
		f3(perGroup*1000)+" ms wall",
		"42 h wall for 42k samples x 100 runs on hardware")

	// Checkpoint memory from a real Abacus serving run.
	peak := checkpointPeak(opts)
	t.AddRow("peak intermediate-result memory", f1(peak/(1<<20))+" MB", "≈20 MB")

	t.Notes = append(t.Notes,
		"the predictor runs on one CPU core; no GPU resources are consumed by scheduling")
	return []Table{t}
}

// checkpointPeak runs a short Abacus serving session and returns the
// executor's peak checkpointed bytes.
func checkpointPeak(opts Options) float64 {
	p := profile()
	eng := sim.NewEngine()
	dev := gpusim.New(eng, p)
	exec := executor.New(dev, executor.SyncCostMS, nil)
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	services := sched.Services(models, 2, p)
	a := sched.NewAbacus(eng, exec, predictor.ForDevice(dev, exec.Specs()), sched.DefaultConfig(), func(*sched.Query) {})
	arrivals := trace.NewGenerator(models, opts.Seed).Poisson(60, 3000)
	eng.ScheduleBatch(trace.Times(arrivals), func(i int) {
		arr := arrivals[i]
		a.Enqueue(&sched.Query{ID: int64(i + 1), Service: services[arr.Service], Input: arr.Input, Arrival: arr.Time})
	})
	eng.RunUntil(4000)
	return exec.PeakCheckpointedBytes()
}
