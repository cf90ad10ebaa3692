package experiments

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/sched"
	"abacus/internal/serving"
	"abacus/internal/sim"
	"abacus/internal/trace"

	"abacus/internal/executor"
	"abacus/internal/gpusim"
	"abacus/internal/predictor"
	"abacus/internal/runner"
	"abacus/internal/stats"
)

func init() {
	register("peakqps", PeakQPS)
	register("segments", Segments)
}

// PeakQPS measures each policy's true QoS-constrained capacity by bisection
// (the quantity Figure 17 approximates with one fixed offered load): the
// highest Poisson load whose violation ratio stays under 5%.
func PeakQPS(opts Options) []Table {
	pairs := [][]dnn.ModelID{
		{dnn.ResNet50, dnn.ResNet152},
		{dnn.ResNet152, dnn.InceptionV3},
		{dnn.ResNet101, dnn.Bert},
		{dnn.VGG16, dnn.VGG19},
	}
	t := Table{
		ID:     "peakqps",
		Title:  "QoS-constrained capacity by bisection (max QPS with <5% violations)",
		Header: []string{"pair", "FCFS", "SJF", "EDF", "Abacus", "Abacus/FCFS"},
	}
	duration := opts.DurationMS / 2
	if duration < 3000 {
		duration = 3000
	}
	// Every (pair, policy) bisection is independent: the probe sequence is
	// fixed by the seed and bracket, so the whole grid fans out at once.
	// Only the Abacus cells train a predictor; the per-key once in
	// unifiedPredictor keeps concurrent cells from duplicating that work.
	policies := serving.AllPolicies()
	caps := runner.Map(len(pairs)*len(policies), opts.Parallel, func(j int) float64 {
		i, pi := j/len(policies), j%len(policies)
		cfg := serving.CapacityConfig{
			Policy:     policies[pi],
			Models:     pairs[i],
			DurationMS: duration,
			Seed:       opts.Seed + int64(i),
		}
		if policies[pi] == serving.PolicyAbacus {
			cfg.Model = unifiedPredictor(opts, pairs[i], 2)
		}
		qps, _ := serving.PeakQPS(cfg)
		return qps
	})
	for i, pair := range pairs {
		row := []string{pairName(pair)}
		var fcfs, abacus float64
		for pi, policy := range policies {
			qps := caps[i*len(policies)+pi]
			row = append(row, f1(qps))
			switch policy {
			case serving.PolicyFCFS:
				fcfs = qps
			case serving.PolicyAbacus:
				abacus = qps
			}
		}
		ratio := 0.0
		if fcfs > 0 {
			ratio = abacus / fcfs
		}
		row = append(row, f2(ratio))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"bisection over offered load; complements Figure 17's fixed-load goodput",
		"expected: Abacus capacity highest on ResNet/Inception pairs, parity on (VGG16,VGG19)")
	return []Table{t}
}

// Segments reports the controller's packing behaviour: queries per group,
// operators per group, and segments per completed query (§6.1's segmental
// execution made visible).
func Segments(opts Options) []Table {
	t := Table{
		ID:     "segments",
		Title:  "Abacus packing statistics (50 QPS)",
		Header: []string{"deployment", "groups", "queries/group", "ops/group", "segments/query p50", "p99"},
	}
	sets := [][]dnn.ModelID{
		{dnn.ResNet152, dnn.InceptionV3},
		{dnn.VGG16, dnn.VGG19},
		{dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert},
	}
	rows := runner.Map(len(sets), opts.Parallel, func(i int) []string {
		models := sets[i]
		p := profile()
		eng := sim.NewEngine()
		dev := gpusim.New(eng, p)
		exec := executor.New(dev, 0.02, nil)
		services := sched.Services(models, 2, p)
		var segs []float64
		ctrl := sched.NewAbacus(eng, exec, predictor.Oracle{Profile: p, Specs: exec.Specs()}, sched.DefaultConfig(), func(q *sched.Query) {
			if !q.Dropped {
				segs = append(segs, float64(q.Segments()))
			}
		})
		arrivals := trace.NewGenerator(models, opts.Seed+int64(i)).Poisson(50, opts.DurationMS)
		enqueueAt, last := serving.EnqueueTimes(arrivals, services, p)
		eng.ScheduleBatch(enqueueAt, func(j int) {
			a := arrivals[j]
			ctrl.Enqueue(&sched.Query{ID: int64(j + 1), Service: services[a.Service], Input: a.Input, Arrival: a.Time})
		})
		eng.RunUntil(last + 1000)

		members, ops := ctrl.GroupStats()
		p50, p99 := 0.0, 0.0
		if len(segs) > 0 {
			qs := stats.Percentiles(segs, 50, 99)
			p50, p99 = qs[0], qs[1]
		}
		return []string{pairName(models), fmt.Sprintf("%d", ctrl.Rounds()),
			f2(members), f1(ops), f1(p50), f1(p99)}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"overlap-friendly deployments pack more queries and operators per group;",
		"a query split across k groups was checkpointed k-1 times by the executor (§6.1)")
	return []Table{t}
}
