package experiments

import (
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/runner"
	"abacus/internal/serving"
	"abacus/internal/sim"
	"abacus/internal/trace"
)

func init() {
	register("fig20", Fig20)
	register("fig21", Fig21)
}

// migCase is one row of Figures 20/21: a partitioning of the A100 into MIG
// instances and an assignment of the four models to instances.
type migCase struct {
	name   string
	groups [][]dnn.ModelID // one entry per instance
	smFrac float64         // per-instance SM fraction (Table 3)
	mFrac  float64         // per-instance memory fraction
}

// migCases returns the paper's three isolation levels over
// {Res101, Res152, VGG19, Bert} (Table 3: 1g.5gb = 1/7 SMs + 1/8 mem,
// 2g.10gb = 2/7 + 1/4, 4g.20gb = 4/7 + 1/2).
func migCases() []migCase {
	r101, r152, v19, b := dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert
	return []migCase{
		{"Res101+Res152+VGG19+Bert (4x MIG 1g.5gb)",
			[][]dnn.ModelID{{r101}, {r152}, {v19}, {b}}, 1.0 / 7, 1.0 / 8},
		{"(Res101,Bert)+(Res152,VGG19) (2x MIG 2g.10gb)",
			[][]dnn.ModelID{{r101, b}, {r152, v19}}, 2.0 / 7, 1.0 / 4},
		{"(Res101,Res152)+(VGG19,Bert) (2x MIG 2g.10gb)",
			[][]dnn.ModelID{{r101, r152}, {v19, b}}, 2.0 / 7, 1.0 / 4},
		{"(Res101,VGG19)+(Res152,Bert) (2x MIG 2g.10gb)",
			[][]dnn.ModelID{{r101, v19}, {r152, b}}, 2.0 / 7, 1.0 / 4},
		{"(Res101,Res152,VGG19,Bert) (1x MIG 4g.20gb)",
			[][]dnn.ModelID{{r101, r152, v19, b}}, 4.0 / 7, 1.0 / 2},
	}
}

// Fig20 reproduces Figure 20: worst-service 99%-ile latency normalized to
// QoS under each MIG configuration and policy. QoS targets are derived on
// the full GPU, so full isolation starves the heavy models. Because
// Abacus's drop mechanism keeps its completed-query p99 near the target
// even when an instance is hopeless, a violation-ratio companion table
// (drops counted, as in Figure 15) accompanies the latency table.
func Fig20(opts Options) []Table {
	return []Table{
		migTable(opts, "fig20",
			"MIG configurations: worst 99%-ile latency / QoS (50 QPS, completed queries)",
			50,
			func(r serving.Result) float64 { return r.NormalizedTail() },
			f2,
			"paper: 1g.5gb full isolation blows past QoS for the heavy models; Abacus on 4g matches pairwise isolation"),
		migTable(opts, "fig20-violations",
			"MIG configurations: QoS violation ratio (drops counted, 50 QPS)",
			50,
			func(r serving.Result) float64 { return r.ViolationRatio() },
			pct,
			"under-provisioned instances force Abacus to drop what it cannot serve in time"),
	}
}

// Fig21 reproduces Figure 21: peak goodput under each MIG configuration.
func Fig21(opts Options) []Table {
	return []Table{migTable(opts, "fig21",
		"MIG configurations: peak goodput at 100 QPS offered (queries/s within QoS)",
		100,
		func(r serving.Result) float64 { return r.Goodput() },
		f1,
		"paper: quad-wise Abacus on 4g.20gb ≈ pairwise deployments on 2x 2g.10gb; both beat full isolation")}
}

func migTable(opts Options, id, title string, qps float64,
	metric func(serving.Result) float64, format func(float64) string, paperNote string) Table {

	t := Table{
		ID:     id,
		Title:  title,
		Header: []string{"configuration", "FCFS", "SJF", "EDF", "Abacus"},
	}
	// Every (configuration, policy) cell is an independent simulation with
	// a per-case seed; the fan-out covers the whole grid and the rows are
	// reassembled in case × policy order.
	cases := migCases()
	policies := serving.AllPolicies()
	cells := runner.Map(len(cases)*len(policies), opts.Parallel, func(i int) serving.Result {
		ci, pi := i/len(policies), i%len(policies)
		return runMIG(opts, cases[ci], policies[pi], qps, opts.Seed+200+int64(ci))
	})
	for ci, c := range cases {
		row := []string{c.name}
		for pi := range policies {
			row = append(row, format(metric(cells[ci*len(policies)+pi])))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, paperNote,
		"Abacus rows use the capacity-matched exact latency model: the duration model",
		"must be profiled on the MIG instance it serves (paper §7.5)")
	return t
}

// runMIG executes one MIG configuration: each instance is a partition of one
// device serving its group of services, and QoS derives from the full device
// (fixed service targets, regardless of slicing). Abacus instances default to
// an oracle matched to their instance capacity (a full-device model would
// systematically under-predict and overpack).
func runMIG(opts Options, c migCase, policy serving.PolicyKind, qps float64, seed int64) serving.Result {
	full := gpusim.New(sim.NewEngine(), profile())
	var models []dnn.ModelID
	devices := make([]*gpusim.Device, len(c.groups))
	hosts := make([][]int, len(c.groups))
	for gi, group := range c.groups {
		devices[gi] = full.Partition(c.smFrac, c.mFrac)
		for _, id := range group {
			hosts[gi] = append(hosts[gi], len(models))
			models = append(models, id)
		}
	}
	return serving.Run(serving.RunConfig{
		Policy:   policy,
		Models:   models,
		Arrivals: trace.NewGenerator(models, seed).Poisson(qps, opts.DurationMS),
		Devices:  devices,
		Hosts:    hosts,
	})
}
