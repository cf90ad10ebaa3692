package experiments

import (
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/sim"
	"abacus/internal/stats"
	"abacus/internal/trace"
)

func init() { register("fig3", Fig03) }

// Fig03 reproduces Figure 3 (the motivation): the latency distribution of
// ResNet-152 (batch 32, fixed input, closed loop) when another DNN service
// runs simultaneously on the same device under MPS-style free overlap — no
// scheduler, kernels overlap however arrivals land. The spread and its
// dependence on the co-runner are what motivate deterministic overlap.
func Fig03(opts Options) []Table {
	p := profile()
	corunners := []dnn.ModelID{dnn.ResNet50, dnn.ResNet101, dnn.InceptionV3, dnn.VGG16, dnn.VGG19, dnn.Bert}
	coQPS := 60.0
	dur := opts.DurationMS

	t := Table{
		ID:     "fig3",
		Title:  "Resnet152 latency under MPS-style free overlap (closed loop, bs=32)",
		Header: []string{"co-runner", "n", "min", "p25", "p50", "p75", "p99", "max"},
	}

	solo := freeOverlapLatencies(p, -1, coQPS, dur, opts.Seed) // no co-runner
	t.AddRow(append([]string{"solo", f1(float64(len(solo)))}, quantileCells(solo)...)...)

	var soloP50 = stats.Percentile(solo, 50)
	var worst float64
	var worstName string
	for _, co := range corunners {
		lats := freeOverlapLatencies(p, co, coQPS, dur, opts.Seed)
		t.AddRow(append([]string{co.String(), f1(float64(len(lats)))}, quantileCells(lats)...)...)
		if m := stats.Max(lats); m > worst {
			worst, worstName = m, co.String()
		}
	}
	t.Notes = append(t.Notes,
		"free overlap makes latency depend on the co-runner and its random arrivals;",
		"worst observed tail "+f1(worst)+" ms (vs solo median "+f1(soloP50)+" ms) under "+worstName)
	return []Table{t}
}

// freeOverlapLatencies runs the closed-loop ResNet-152 client against an
// open-loop co-runner with Poisson arrivals and unbounded concurrency (what
// MPS permits) and returns the client's per-query latencies. co < 0 runs
// the client alone.
func freeOverlapLatencies(p gpusim.Profile, co dnn.ModelID, coQPS, durationMS float64, seed int64) []float64 {
	eng := sim.NewEngine()
	dev := gpusim.New(eng, p)

	target := dnn.Get(dnn.ResNet152)
	in := dnn.Input{Batch: 32}
	specs := dnn.Kernels(target, in, p, 0, target.NumOps())

	var lats []float64
	var submit func()
	submit = func() {
		start := eng.Now()
		dev.RunChain(specs, func() {
			lats = append(lats, eng.Now()-start)
			if eng.Now() < durationMS {
				submit()
			}
		})
	}
	submit()

	if co >= 0 {
		m := dnn.Get(co)
		arrivals := trace.NewGenerator([]dnn.ModelID{co}, seed).Poisson(coQPS, durationMS)
		eng.ScheduleBatch(trace.Times(arrivals), func(i int) {
			dev.RunChain(dnn.Kernels(m, arrivals[i].Input, p, 0, m.NumOps()), nil)
		})
	}
	eng.RunUntil(durationMS + 500)
	return lats
}

func quantileCells(lats []float64) []string {
	qs := stats.Percentiles(lats, 0, 25, 50, 75, 99, 100)
	out := make([]string, len(qs))
	for i, q := range qs {
		out[i] = f1(q)
	}
	return out
}
