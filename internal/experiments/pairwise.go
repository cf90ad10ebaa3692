package experiments

import (
	"abacus/internal/dnn"
	"abacus/internal/predictor"
	"abacus/internal/runner"
	"abacus/internal/sched"
	"abacus/internal/serving"
	"abacus/internal/trace"
)

func init() {
	register("fig14", Fig14)
	register("fig15", Fig15)
	register("fig16", Fig16)
	register("fig17", Fig17)
}

// pairRun holds the four policies' results for one co-location set.
type pairRun struct {
	name    string
	results map[serving.PolicyKind]serving.Result
}

// runCoLocation executes all four policies over the same arrival trace for
// one co-located model set. model supplies Abacus's duration model; nil
// selects the per-set unified predictor (or the oracle in quick mode).
func runCoLocation(opts Options, models []dnn.ModelID, qps float64, services []*sched.Service, seed int64, model predictor.LatencyModel) pairRun {
	gen := trace.NewGenerator(models, seed)
	var arrivals []trace.Arrival
	if services != nil {
		// Small-DNN experiment: pin the minimum input.
		arrivals = gen.FixedInput(qps, opts.DurationMS, func(svc int) dnn.Input {
			return dnn.Get(models[svc]).MinInput()
		})
	} else {
		arrivals = gen.Poisson(qps, opts.DurationMS)
	}

	out := pairRun{name: pairName(models), results: map[serving.PolicyKind]serving.Result{}}
	for _, policy := range serving.AllPolicies() {
		cfg := serving.RunConfig{
			Policy:   policy,
			Models:   models,
			Arrivals: arrivals,
			Services: services,
		}
		if policy == serving.PolicyAbacus {
			if model == nil {
				model = unifiedPredictor(opts, models, len(models))
			}
			cfg.Model = model
		}
		out.results[policy] = serving.Run(cfg)
	}
	return out
}

// Fig14 reproduces Figure 14: 99%-ile latency of every pairwise
// co-location, normalized to the QoS target, for FCFS/SJF/EDF/Abacus at
// 50 QPS.
func Fig14(opts Options) []Table {
	return []Table{pairwiseTable(opts, "fig14",
		"Pairwise 99%-ile latency normalized to QoS (50 QPS)",
		50, nil,
		func(r serving.Result) float64 { return r.NormalizedTail() },
		f2,
		"paper: Abacus cuts p99 by 23.1%/34.1%/23.8% vs FCFS/SJF/EDF",
		true)}
}

// Fig15 reproduces Figure 15: the QoS violation ratio (drops included) per
// pairwise co-location at 50 QPS.
func Fig15(opts Options) []Table {
	return []Table{pairwiseTable(opts, "fig15",
		"Pairwise QoS violation ratio (50 QPS, drops counted)",
		50, nil,
		func(r serving.Result) float64 { return r.ViolationRatio() },
		pct,
		"paper: Abacus reduces violations by 38.8%/71.0%/44.0% vs FCFS/SJF/EDF",
		true)}
}

// Fig17 reproduces Figure 17: peak throughput (queries completed within
// QoS per second) per pairwise co-location at a saturating 100 QPS offered
// load.
func Fig17(opts Options) []Table {
	return []Table{pairwiseTable(opts, "fig17",
		"Pairwise peak goodput at 100 QPS offered (queries/s within QoS)",
		100, nil,
		func(r serving.Result) float64 { return r.Goodput() },
		f1,
		"paper: Abacus improves peak throughput by 25.7%/38.1%/25.7% vs FCFS/SJF/EDF",
		false)}
}

// Fig16 reproduces Figure 16: with the minimum inputs and QoS pinned to 2×
// the minimum-input solo latency, Abacus still holds the (much tighter)
// targets.
func Fig16(opts Options) []Table {
	p := profile()
	t := Table{
		ID:     "fig16",
		Title:  "Small-DNN 99%-ile latency normalized to tight QoS (min inputs, 50 QPS)",
		Header: []string{"pair", "FCFS", "SJF", "EDF", "Abacus"},
	}
	// One unified model across all pairs (the paper's deployment: a single
	// duration model for the whole zoo). Trained before the fan-out so the
	// workers share one read-only model.
	shared := unifiedAcrossPairs(opts)
	pairs := evalPairs(opts)
	runs := runner.Map(len(pairs), 0, func(i int) pairRun {
		services := sched.SmallServices(pairs[i], 2, p)
		return runCoLocation(opts, pairs[i], 50, services, opts.Seed+int64(i), shared)
	})
	var worst float64
	for _, run := range runs {
		row := []string{run.name}
		for _, policy := range serving.AllPolicies() {
			res := run.results[policy]
			v := res.NormalizedTail()
			row = append(row, f2(v))
			if policy == serving.PolicyAbacus && v > worst {
				worst = v
			}
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"Abacus worst normalized p99 = "+f2(worst)+
			" (paper: closer to 1.0 than Figure 14 — tighter targets leave less room for grouping)")
	return []Table{t}
}

// unifiedAcrossPairs returns the single duration model shared by every
// pairwise experiment: trained once over all 7 models' singleton and pair
// groups (the paper's unified-model deployment, §4).
func unifiedAcrossPairs(opts Options) predictor.LatencyModel {
	return unifiedPredictor(opts, ZooIDs(), 2)
}

// pairwiseTable renders one metric across all pairs × policies.
func pairwiseTable(opts Options, id, title string, qps float64, services []*sched.Service,
	metric func(serving.Result) float64, format func(float64) string, paperNote string,
	lowerIsBetter bool) Table {

	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"pair", "FCFS", "SJF", "EDF", "Abacus"},
	}
	perPolicy := map[serving.PolicyKind][]float64{}
	shared := unifiedAcrossPairs(opts)
	pairs := evalPairs(opts)
	// Every pair is an independent deterministic simulation seeded by its
	// index; the fan-out preserves row order, so the table is identical at
	// any parallelism.
	runs := runner.Map(len(pairs), 0, func(i int) pairRun {
		return runCoLocation(opts, pairs[i], qps, services, opts.Seed+int64(i), shared)
	})
	for _, run := range runs {
		row := []string{run.name}
		for _, policy := range serving.AllPolicies() {
			v := metric(run.results[policy])
			perPolicy[policy] = append(perPolicy[policy], v)
			row = append(row, format(v))
		}
		t.AddRow(row...)
	}
	ab := perPolicy[serving.PolicyAbacus]
	for _, base := range []serving.PolicyKind{serving.PolicyFCFS, serving.PolicySJF, serving.PolicyEDF} {
		var v float64
		if lowerIsBetter {
			v = meanImprovement(ab, perPolicy[base])
			t.Notes = append(t.Notes, "Abacus vs "+base.String()+": mean reduction "+pct(v))
		} else {
			v = meanGain(ab, perPolicy[base])
			t.Notes = append(t.Notes, "Abacus vs "+base.String()+": mean gain "+pct(v))
		}
	}
	t.Notes = append(t.Notes, paperNote)
	return t
}
