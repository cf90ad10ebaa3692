package experiments

import (
	"abacus/internal/dnn"
	"abacus/internal/runner"
	"abacus/internal/serving"
)

func init() {
	register("fig18", Fig18)
	register("fig19", Fig19)
}

// nwiseSets returns the paper's §7.4 deployments: the quadruplet of
// {Res101, Res152, VGG19, Bert} and its four triplets.
func nwiseSets() [][]dnn.ModelID {
	return [][]dnn.ModelID{
		{dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert},
		{dnn.ResNet101, dnn.ResNet152, dnn.VGG19},
		{dnn.ResNet101, dnn.ResNet152, dnn.Bert},
		{dnn.ResNet101, dnn.VGG19, dnn.Bert},
		{dnn.ResNet152, dnn.VGG19, dnn.Bert},
	}
}

// Fig18 reproduces Figure 18: 99%-ile latency normalized to QoS for
// triplet- and quadruplet-wise deployments at 50 QPS.
func Fig18(opts Options) []Table {
	return []Table{nwiseTable(opts, "fig18",
		"Triplet/quadruplet 99%-ile latency normalized to QoS (50 QPS)",
		50,
		func(r serving.Result) float64 { return r.NormalizedTail() },
		f2, true,
		"paper: Abacus cuts p99 by ~21%/35%/21% (triplets) and ~16%/34%/21% (quads) vs FCFS/SJF/EDF")}
}

// Fig19 reproduces Figure 19: peak goodput for triplet- and
// quadruplet-wise deployments at 100 QPS offered.
func Fig19(opts Options) []Table {
	return []Table{nwiseTable(opts, "fig19",
		"Triplet/quadruplet peak goodput at 100 QPS offered (queries/s within QoS)",
		100,
		func(r serving.Result) float64 { return r.Goodput() },
		f1, false,
		"paper: Abacus improves peak throughput by ~51-72% (triplets), ~38-63% (quads); no loss as N grows")}
}

func nwiseTable(opts Options, id, title string, qps float64,
	metric func(serving.Result) float64, format func(float64) string,
	lowerIsBetter bool, paperNote string) Table {

	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"deployment", "FCFS", "SJF", "EDF", "Abacus"},
	}
	perPolicy := map[serving.PolicyKind][]float64{}
	// One model covering singleton through quadruplet groups of the §7.4
	// deployment set.
	shared := unifiedPredictor(opts, []dnn.ModelID{dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert}, 4)
	sets := nwiseSets()
	runs := runner.Map(len(sets), 0, func(i int) pairRun {
		return runCoLocation(opts, sets[i], qps, nil, opts.Seed+100+int64(i), shared)
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
		if lowerIsBetter {
			t.Notes = append(t.Notes, "Abacus vs "+base.String()+": mean reduction "+pct(meanImprovement(ab, perPolicy[base])))
		} else {
			t.Notes = append(t.Notes, "Abacus vs "+base.String()+": mean gain "+pct(meanGain(ab, perPolicy[base])))
		}
	}
	t.Notes = append(t.Notes, paperNote)
	return t
}
