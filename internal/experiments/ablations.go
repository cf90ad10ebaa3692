package experiments

import (
	"fmt"

	"abacus/internal/dnn"
	"abacus/internal/executor"
	"abacus/internal/predictor"
	"abacus/internal/runner"
	"abacus/internal/sched"
	"abacus/internal/serving"
	"abacus/internal/trace"
)

func init() { register("ablations", Ablations) }

// Ablations quantifies the contribution of each Abacus design choice that
// DESIGN.md calls out: pipelined scheduling (§6.3), the drop mechanism
// (§6.2), the multi-way search width, the duration-model quality (trained
// MLP vs exact oracle), and the per-group synchronization cost. Each row
// reruns the hot (Res152, IncepV3) pair at 50 QPS with one knob changed.
func Ablations(opts Options) []Table {
	models := []dnn.ModelID{dnn.ResNet152, dnn.InceptionV3}
	gen := trace.NewGenerator(models, opts.Seed)
	arrivals := gen.Poisson(50, opts.DurationMS)

	type variant struct {
		name  string
		cfg   sched.Config
		model predictor.LatencyModel
		sync  float64
	}
	baseCfg := sched.DefaultConfig()
	noPipe := baseCfg
	noPipe.Pipelined = false
	noDrop := baseCfg
	noDrop.Drop = false
	oneWay := baseCfg
	oneWay.Ways = 1
	eightWay := baseCfg
	eightWay.Ways = 8
	costlyPred := baseCfg
	costlyPred.PredictCost = 0.5

	trained := unifiedPredictor(opts, models, 2)

	variants := []variant{
		{"baseline (pipelined, drop, 4-way)", baseCfg, trained, executor.SyncCostMS},
		{"no pipelining", noPipe, trained, executor.SyncCostMS},
		{"no drop mechanism", noDrop, trained, executor.SyncCostMS},
		{"1-way search", oneWay, trained, executor.SyncCostMS},
		{"8-way search", eightWay, trained, executor.SyncCostMS},
		{"5x prediction cost", costlyPred, trained, executor.SyncCostMS},
		{"oracle predictor", baseCfg, nil, executor.SyncCostMS},
		{"5x sync cost", baseCfg, trained, 5 * executor.SyncCostMS},
	}

	t := Table{
		ID:     "ablations",
		Title:  "Abacus design-choice ablations on (Res152,IncepV3) at 50 QPS",
		Header: []string{"variant", "p99/QoS", "violations", "goodput(r/s)", "groups"},
	}
	// Every variant replays the same (read-only) arrival trace on its own
	// device; named jobs attribute a panicking variant directly.
	var plan runner.Plan[serving.Result]
	for _, v := range variants {
		v := v
		plan.Add("ablations/"+v.name, func() serving.Result {
			return serving.Run(serving.RunConfig{
				Policy:   serving.PolicyAbacus,
				Models:   models,
				Arrivals: arrivals,
				Model:    v.model,
				Sched:    v.cfg,
				SyncCost: v.sync,
			})
		})
	}
	// The unmanaged extreme: MPS-style free overlap with no scheduling at
	// all — maximum concurrency, zero predictability.
	plan.Add("ablations/mps", func() serving.Result {
		return serving.Run(serving.RunConfig{
			Policy:   serving.PolicyMPS,
			Models:   models,
			Arrivals: arrivals,
		})
	})
	// The other extreme the paper rejects (§5.1): kernel-granularity
	// scheduling with a fence and a prediction per operator.
	plan.Add("ablations/kernel-level", func() serving.Result {
		return serving.Run(serving.RunConfig{
			Policy:   serving.PolicyKernelLevel,
			Models:   models,
			Arrivals: arrivals,
		})
	})
	results := plan.Run(0)
	for i, v := range variants {
		res := results[i]
		t.AddRow(v.name, f2(res.NormalizedTail()), pct(res.ViolationRatio()),
			f1(res.Goodput()), fmt.Sprintf("%d", res.Groups))
	}
	mps := results[len(variants)]
	t.AddRow("MPS free overlap (no scheduling)", f2(mps.NormalizedTail()),
		pct(mps.ViolationRatio()), f1(mps.Goodput()), fmt.Sprintf("%d", mps.Groups))
	kl := results[len(variants)+1]
	t.AddRow("kernel-level scheduling (Prema-style)", f2(kl.NormalizedTail()),
		pct(kl.ViolationRatio()), f1(kl.Goodput()), fmt.Sprintf("%d", kl.Groups))
	t.Notes = append(t.Notes,
		"expected: removing pipelining or widening prediction cost hurts tail latency;",
		"disabling drop lets stale queries poison later ones; oracle bounds the trained MLP;",
		"free overlap can look fine at moderate load on an overlap-friendly pair, but it",
		"carries no guarantee — Figure 3 shows its tail exploding under VGG co-runners;",
		"kernel-level fencing pays a prediction per operator and forfeits overlap (§5.1)")
	return []Table{t}
}
