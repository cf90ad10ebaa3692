package experiments

import (
	"abacus/internal/dnn"
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

// nwise renders one comparison over the §7.4 deployments, with one model
// covering singleton through quadruplet groups of the set.
func nwise(opts Options, c comparison) []Table {
	c.setHeader, c.sets, c.seed = "deployment", nwiseSets(), 100
	c.model = unifiedPredictor(opts, nwiseSets()[0], 4)
	t, _ := c.table(opts)
	return []Table{t}
}

// Fig18 reproduces Figure 18: 99%-ile latency normalized to QoS for
// triplet- and quadruplet-wise deployments at 50 QPS.
func Fig18(opts Options) []Table {
	return nwise(opts, comparison{
		id:            "fig18",
		title:         "Triplet/quadruplet 99%-ile latency normalized to QoS (50 QPS)",
		qps:           50,
		metric:        (*serving.Result).NormalizedTail,
		format:        f2,
		lowerIsBetter: true,
		note:          "paper: Abacus cuts p99 by ~21%/35%/21% (triplets) and ~16%/34%/21% (quads) vs FCFS/SJF/EDF",
	})
}

// Fig19 reproduces Figure 19: peak goodput for triplet- and
// quadruplet-wise deployments at 100 QPS offered.
func Fig19(opts Options) []Table {
	return nwise(opts, comparison{
		id:     "fig19",
		title:  "Triplet/quadruplet peak goodput at 100 QPS offered (queries/s within QoS)",
		qps:    100,
		metric: (*serving.Result).Goodput,
		format: f1,
		note:   "paper: Abacus improves peak throughput by ~51-72% (triplets), ~38-63% (quads); no loss as N grows",
	})
}
