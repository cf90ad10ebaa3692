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

// comparison is one policy-comparison table: each co-location set runs all
// four policies over one arrival trace, and the table holds one metric, a
// row per set and a column per policy.
type comparison struct {
	id, title string
	setHeader string // the first header cell
	sets      [][]dnn.ModelID
	seed      int64 // set i's trace is seeded opts.Seed + seed + i
	qps       float64
	// services, when non-nil, gives each set its services (runCoLocation).
	services func([]dnn.ModelID) []*sched.Service
	model    predictor.LatencyModel // Abacus's duration model, shared by every set
	metric   func(*serving.Result) float64
	format   func(float64) string
	// A non-empty note closes the table with Abacus's mean reduction (gain,
	// unless lowerIsBetter) against each baseline and then the note.
	lowerIsBetter bool
	note          string
}

// table runs the sets and renders the table; it also returns Abacus's
// column. Every set is an independent deterministic simulation seeded by
// its index; the fan-out preserves row order, so the table is identical at
// any parallelism.
func (c comparison) table(opts Options) (Table, []float64) {
	t := Table{
		ID:     c.id,
		Title:  c.title,
		Header: []string{c.setHeader, "FCFS", "SJF", "EDF", "Abacus"},
	}
	runs := runner.Map(len(c.sets), 0, func(i int) pairRun {
		var services []*sched.Service
		if c.services != nil {
			services = c.services(c.sets[i])
		}
		return runCoLocation(opts, c.sets[i], c.qps, services, opts.Seed+c.seed+int64(i), c.model)
	})
	perPolicy := map[serving.PolicyKind][]float64{}
	for _, run := range runs {
		row := []string{run.name}
		for _, policy := range serving.AllPolicies() {
			res := run.results[policy]
			v := c.metric(&res)
			perPolicy[policy] = append(perPolicy[policy], v)
			row = append(row, c.format(v))
		}
		t.AddRow(row...)
	}
	ab := perPolicy[serving.PolicyAbacus]
	if c.note == "" {
		return t, ab
	}
	for _, base := range []serving.PolicyKind{serving.PolicyFCFS, serving.PolicySJF, serving.PolicyEDF} {
		if c.lowerIsBetter {
			t.Notes = append(t.Notes, "Abacus vs "+base.String()+": mean reduction "+pct(meanImprovement(ab, perPolicy[base])))
		} else {
			t.Notes = append(t.Notes, "Abacus vs "+base.String()+": mean gain "+pct(meanGain(ab, perPolicy[base])))
		}
	}
	t.Notes = append(t.Notes, c.note)
	return t, ab
}

// pairwise renders one comparison over every evaluation pair, with the one
// unified duration model shared by every pairwise experiment.
func pairwise(opts Options, c comparison) (Table, []float64) {
	c.setHeader, c.sets, c.model = "pair", evalPairs(opts), unifiedAcrossPairs(opts)
	return c.table(opts)
}

// Fig14 reproduces Figure 14: 99%-ile latency of every pairwise
// co-location, normalized to the QoS target, for FCFS/SJF/EDF/Abacus at
// 50 QPS.
func Fig14(opts Options) []Table {
	t, _ := pairwise(opts, comparison{
		id:            "fig14",
		title:         "Pairwise 99%-ile latency normalized to QoS (50 QPS)",
		qps:           50,
		metric:        (*serving.Result).NormalizedTail,
		format:        f2,
		lowerIsBetter: true,
		note:          "paper: Abacus cuts p99 by 23.1%/34.1%/23.8% vs FCFS/SJF/EDF",
	})
	return []Table{t}
}

// Fig15 reproduces Figure 15: the QoS violation ratio (drops included) per
// pairwise co-location at 50 QPS.
func Fig15(opts Options) []Table {
	t, _ := pairwise(opts, comparison{
		id:            "fig15",
		title:         "Pairwise QoS violation ratio (50 QPS, drops counted)",
		qps:           50,
		metric:        (*serving.Result).ViolationRatio,
		format:        pct,
		lowerIsBetter: true,
		note:          "paper: Abacus reduces violations by 38.8%/71.0%/44.0% vs FCFS/SJF/EDF",
	})
	return []Table{t}
}

// Fig17 reproduces Figure 17: peak throughput (queries completed within
// QoS per second) per pairwise co-location at a saturating 100 QPS offered
// load.
func Fig17(opts Options) []Table {
	t, _ := pairwise(opts, comparison{
		id:     "fig17",
		title:  "Pairwise peak goodput at 100 QPS offered (queries/s within QoS)",
		qps:    100,
		metric: (*serving.Result).Goodput,
		format: f1,
		note:   "paper: Abacus improves peak throughput by 25.7%/38.1%/25.7% vs FCFS/SJF/EDF",
	})
	return []Table{t}
}

// Fig16 reproduces Figure 16: with the minimum inputs and QoS pinned to 2×
// the minimum-input solo latency, Abacus still holds the (much tighter)
// targets.
func Fig16(opts Options) []Table {
	p := profile()
	t, ab := pairwise(opts, comparison{
		id:       "fig16",
		title:    "Small-DNN 99%-ile latency normalized to tight QoS (min inputs, 50 QPS)",
		qps:      50,
		services: func(set []dnn.ModelID) []*sched.Service { return sched.SmallServices(set, 2, p) },
		metric:   (*serving.Result).NormalizedTail,
		format:   f2,
	})
	var worst float64
	for _, v := range ab {
		if v > worst {
			worst = v
		}
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
