package experiments

import (
	"fmt"

	"abacus/internal/cluster"
	"abacus/internal/dnn"
	"abacus/internal/gpusim"
	"abacus/internal/runner"
	"abacus/internal/trace"
)

func init() { register("fig22", Fig22) }

// Fig22 reproduces Figure 22 (§7.6): a multi-node cluster replaying a
// MAF-like trace with quad-wise deployment, comparing Kubernetes routing +
// node-level Abacus against a Clockwork-style central EDF scheduler. The
// reproduction targets: Abacus sustains higher throughput (paper: +17.8%)
// by dropping far fewer queries, both keep p99 under the 100 ms QoS, and
// Abacus's average latency sits slightly above Clockwork's (it trades
// short-query headroom for throughput).
//
// Scaling note: the paper replays 2 hours of the proprietary Microsoft
// Azure Functions trace on 16 V100s at ~10k queries/s. This reproduction
// replays a synthetic MAF-like trace (internal/trace) on a smaller
// simulated cluster at a rate that produces the same pressure ratio; see
// DESIGN.md.
func Fig22(opts Options) []Table {
	models := []dnn.ModelID{dnn.ResNet101, dnn.ResNet152, dnn.VGG19, dnn.Bert}
	// The paper's cluster nodes carry V100s (§7.6); loads are scaled to the
	// weaker device accordingly.
	profile := gpusim.V100Profile()
	nodes, gpusPerNode := 4, 1
	durationMS := 10 * 60_000.0 // 10 minutes
	baseQPS := 95.0             // pressures the sequential baseline, mostly via bursts
	bucketMS := 60_000.0
	if opts.Quick {
		nodes = 2
		durationMS = 60_000
		baseQPS = 42
		bucketMS = 10_000
	}

	// Diurnal drift keeps the trough easy; bursts overrun the sequential
	// capacity so drops concentrate there (the MAF trace's character).
	mafCfg := trace.MAFConfig{
		BaseQPS:          baseQPS,
		DurationMS:       durationMS,
		DiurnalAmplitude: 0.2,
		BurstProb:        0.3,
		BurstFactor:      2.0,
		Seed:             opts.Seed,
	}
	gen := trace.NewGenerator(models, opts.Seed)
	arrivals := gen.MAF(mafCfg)

	// The two policies replay the same (read-only) trace on separate
	// simulated fleets, side by side. Abacus's predictor trains inside its
	// job, overlapping Clockwork's run.
	var plan runner.Plan[cluster.Result]
	for _, policy := range []cluster.Policy{cluster.KubeAbacus, cluster.Clockwork} {
		policy := policy
		plan.Add("fig22/"+policy.String(), func() cluster.Result {
			cfg := cluster.Config{
				Policy:      policy,
				Nodes:       nodes,
				GPUsPerNode: gpusPerNode,
				Models:      models,
				QoS:         100,
				Arrivals:    arrivals,
				Profile:     profile,
				BucketMS:    bucketMS,
			}
			if policy == cluster.KubeAbacus {
				cfg.Model = v100Predictor(opts, models)
			}
			return cluster.Run(cfg)
		})
	}
	results := plan.Run(0)
	abacus, clock := results[0], results[1]

	timeline := Table{
		ID:    "fig22",
		Title: fmt.Sprintf("Cluster timeline: %d GPUs, MAF-like trace, QoS 100 ms", nodes*gpusPerNode),
		Header: []string{"t(min)", "offered(r/s)",
			"Abacus tput", "Clock tput", "Abacus p99", "Clock p99", "Abacus avg", "Clock avg"},
	}
	for i := range abacus.Timeline {
		a := abacus.Timeline[i]
		var c cluster.TimelinePoint
		if i < len(clock.Timeline) {
			c = clock.Timeline[i]
		}
		timeline.AddRow(
			f1(a.StartMS/60_000), f1(a.OfferedQPS),
			f1(a.Throughput), f1(c.Throughput),
			f1(a.P99), f1(c.P99),
			f1(a.AvgLat), f1(c.AvgLat))
	}

	summary := Table{
		ID:     "fig22-summary",
		Title:  "Cluster totals",
		Header: []string{"policy", "completed", "dropped", "throughput(r/s)", "p99(ms)", "avg(ms)", "J/query"},
	}
	for _, r := range []cluster.Result{abacus, clock} {
		summary.AddRow(r.Policy.String(),
			fmt.Sprintf("%d", r.Completed), fmt.Sprintf("%d", r.Dropped),
			f1(r.Throughput(durationMS)), f1(r.P99Latency), f1(r.AvgLatency),
			f2(r.JoulesPerQuery()))
	}
	if clock.Completed > 0 {
		gain := float64(abacus.Completed)/float64(clock.Completed) - 1
		summary.Notes = append(summary.Notes,
			"Abacus throughput gain over Clockwork: "+pct(gain)+" (paper: +17.8%)")
	}
	summary.Notes = append(summary.Notes,
		"Abacus avg latency minus Clockwork avg: "+f1(abacus.AvgLatency-clock.AvgLatency)+
			" ms (paper: slightly positive — headroom traded for throughput)")
	return []Table{timeline, summary}
}
